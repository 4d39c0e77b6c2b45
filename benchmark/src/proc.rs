//! Process-level counters read from `/proc/self` (Linux only; every
//! reader returns zeros elsewhere so the harness still runs).

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. Fixed at
/// 100 on every Linux ABI the workspace targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time and page faults of the whole process (all threads, including
/// ones that already exited).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

impl ProcSample {
    /// What was consumed between `earlier` and `self`.
    pub fn since(self, earlier: ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Samples `/proc/self/stat`.
pub fn sample() -> ProcSample {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return ProcSample::default();
    };
    // The command name (field 2) is parenthesised and may contain spaces:
    // split after the last ')'. The remainder starts at field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return ProcSample::default();
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> f64 {
        fields
            .get(n - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    ProcSample {
        user_s: field(14) / TICKS_PER_SECOND,
        sys_s: field(15) / TICKS_PER_SECOND,
        minor_faults: field(10) as u64,
    }
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(key)?
                    .trim_start_matches(':')
                    .split_whitespace()
                    .next()?
                    .parse::<f64>()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

#[cfg(target_os = "linux")]
extern "C" {
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Seconds of CPU this process (all its threads) has used, to the
/// nanosecond; 0 off Linux.
///
/// For a workload that keeps exactly one CPU busy this is its wall time
/// minus the time the hypervisor gave that CPU to someone else: on the
/// shared reference box a 1.9 s `async-scale` run was off the CPU for up to
/// 0.7 s of a 2.9 s wall, and not at all a minute later.
pub fn cpu_time_s() -> f64 {
    #[cfg(target_os = "linux")]
    {
        /// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>`.
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        // `struct timespec` on 64-bit Linux: seconds, nanoseconds.
        let mut time = [0i64; 2];
        // SAFETY: `time` is a writable `timespec`-sized buffer.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
            return 0.0;
        }
        time[0] as f64 + time[1] as f64 * 1e-9
    }
    #[cfg(not(target_os = "linux"))]
    0.0
}

/// Restricts the calling thread, and every thread spawned from it
/// afterwards, to the lowest-numbered CPU it may run on; returns that CPU
/// (`None` when the kernel refuses or off Linux, and then nothing changed).
///
/// For a workload whose threads hand work to one another: side by side on
/// two vCPUs of a shared host their wall time reads how much of the second
/// vCPU the hypervisor grants that minute (a 2-thread canary moves 0.06 ->
/// 0.12 s while a 1-thread one stays put); taking turns on one CPU it reads
/// the work.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // 1024 CPUs, the size of glibc's `cpu_set_t`.
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of `bytes` bytes; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().position(|w| *w != 0)?;
        let bit = mask[word].trailing_zeros();
        mask = [0u64; 16];
        mask[word] = 1 << bit;
        // SAFETY: as above, read-only.
        if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit as usize)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Tells the C allocator (the harness's global allocator forwards to it)
/// never to hand freed memory back to the kernel; returns whether it took
/// the setting.
///
/// For a workload that frees and re-allocates tens of megabytes per rep:
/// whether glibc trims an arena depends on the order the frees arrive in,
/// so identical reps page-fault 2 000 or 15 000 times (a coin toss worth a
/// fifth of a `net-gossip` burst). Untrimmed, every rep after the warm-up
/// reuses the same pages, as a peer that has been up for a while does.
pub fn keep_freed_memory() -> bool {
    #[cfg(target_os = "linux")]
    {
        /// `M_TRIM_THRESHOLD` of `<malloc.h>`.
        const M_TRIM_THRESHOLD: i32 = -1;
        // SAFETY: `mallopt` only stores the value in the allocator's
        // parameter block, under the allocator's own lock.
        unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_rss_is_positive() {
        let (a, cpu) = (sample(), cpu_time_s());
        let mut sink = vec![0u8; 8 << 20];
        for (i, b) in sink.iter_mut().enumerate() {
            *b = i as u8;
        }
        std::hint::black_box(&sink);
        let d = sample().since(a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        if cfg!(target_os = "linux") {
            assert!(cpu_time_s() > cpu, "touching 8 MB takes CPU time");
            assert!(peak_rss_mb() > 1.0);
            assert!(d.minor_faults > 0, "touching 8 MB faults pages in");
        }
    }

    #[test]
    fn pinning_is_inherited_by_threads_spawned_afterwards() {
        if !cfg!(target_os = "linux") {
            return;
        }
        // On a thread of its own: the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("the kernel lets a thread narrow its own mask");
            let child = std::thread::spawn(pin_to_one_cpu).join().unwrap();
            assert_eq!(child, Some(cpu), "the child's mask is already that one CPU");
        })
        .join()
        .unwrap();
    }
}
