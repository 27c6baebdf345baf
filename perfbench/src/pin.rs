//! Pins the benchmark to one CPU before it starts any thread.
//!
//! Every thread the run starts (HTTP workers, engine shards, the
//! client) inherits the pin. On a 2-vCPU x86-64 VM, a request handed
//! between threads on different vCPUs waited about 20 µs for the other
//! vCPU to wake, twice the server's own work, and that wait doubled
//! whenever the host took time from the other vCPU. Pinned, the
//! handoff is a context switch, and host contention slows every path
//! by the time it takes instead of several times that.

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a `cpu_set_t` (1024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

/// Restricts the calling thread, and every thread it starts later, to
/// the lowest-numbered CPU it may run on. Returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is writable for exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..64 * MASK_WORDS)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("the affinity mask allows no CPU"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable for exactly the size passed, and pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "pinning to one CPU is implemented for Linux only",
    ))
}
