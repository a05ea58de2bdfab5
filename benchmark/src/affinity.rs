//! One CPU for the whole benchmark process.
//!
//! Left alone, the kernel puts a client thread and the server thread it
//! talks to on the same CPU in one run and on different CPUs in the next,
//! and on a small virtual machine a request/response ping-pong costs twice
//! as much across CPUs as within one.  On the 2-CPU reference host that
//! placement lottery, not the code under test, decided the numbers: five
//! runs of one workload spread by 10-60 % of the median unpinned, 7-27 %
//! with generator and system on a CPU each, 3-14 % on one CPU.  A benchmark
//! that cannot repeat itself cannot gate a change, so every thread of the
//! run shares one CPU.  What this gives up — parallel speed-up and lock
//! contention between cores — the README says.

/// `sched_getaffinity` (204) or `sched_setaffinity` (203) on the calling
/// thread with one 64-CPU word; returns the kernel's result.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(number: isize, mask: &mut u64) -> isize {
    let ret: isize;
    // SAFETY: both calls take (pid = 0: this thread, length = 8, pointer to
    // 8 bytes); `mask` is a live, exclusive 8-byte word for the whole call,
    // which reads it (set) or writes at most 8 bytes to it (get) and touches
    // nothing else of this process's memory; `syscall` clobbers rcx and r11.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number => ret,
            in("rdi") 0usize,
            in("rsi") 8usize,
            in("rdx") mask as *mut u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_number: isize, _mask: &mut u64) -> isize {
    -1
}

/// Confine the calling thread, and with it every thread spawned from here
/// on, to the last CPU it may run on (the first ones take the interrupts).
/// Call before any other thread exists.  Returns the CPU, or `None` where
/// masks cannot be read or set and the run goes unpinned.
pub fn pin_process() -> Option<usize> {
    let mut allowed = 0u64;
    if affinity_syscall(204, &mut allowed) <= 0 || allowed == 0 {
        return None;
    }
    let cpu = 63 - allowed.leading_zeros() as usize;
    let mut one = 1u64 << cpu;
    (affinity_syscall(203, &mut one) == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu() {
        // on its own thread: the mask is per thread and inherited by children
        std::thread::spawn(|| {
            if let Some(cpu) = super::pin_process() {
                let mut now = 0u64;
                assert!(super::affinity_syscall(204, &mut now) > 0);
                assert_eq!(now, 1 << cpu);
                let seen = std::thread::spawn(std::thread::available_parallelism).join().unwrap();
                assert_eq!(seen.map(|n| n.get()).ok(), Some(1));
            }
        })
        .join()
        .unwrap();
    }
}
