//! Keeps the service's worker off the generator's CPU.
//!
//! A serve run has two busy threads: the generator (this process's main
//! thread) and the service's worker. Left to the scheduler, a worker
//! woken by the generator is often placed on the generator's CPU, and
//! the two then share one CPU while the other idles — on a two-CPU host
//! that happened about half the time, and the measured throughput moved
//! by a third between runs of the same inputs. Pinning every thread but
//! the main one to CPUs 1, 2, … removes that; the main thread stays free
//! to run anywhere, so a busy CPU 0 cannot stall the open-loop generator
//! (pinning it as well made its send lag spike). The standard library has
//! no affinity call, so this uses the `taskset` tool; without it (or with
//! one CPU) nothing is pinned and the run notes it.

use std::process::{Command, Stdio};

fn taskset(tid: &str, cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Pins every thread of the process except the calling one to CPUs
/// 1, 2, … in turn. Returns what was done, for the run's notes.
pub fn pin_threads() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        return "not pinned: one CPU".into();
    }
    let Some(me) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
    else {
        return "not pinned: no /proc/thread-self".into();
    };
    let mut others: Vec<String> = std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .filter(|tid| *tid != me)
                .collect()
        })
        .unwrap_or_default();
    others.sort();
    let mut ok = true;
    for (k, tid) in others.iter().enumerate() {
        ok &= taskset(tid, 1 + k % (cpus - 1));
    }
    if ok {
        format!(
            "{} thread(s) besides the main one on CPUs 1..{}",
            others.len(),
            cpus - 1
        )
    } else {
        "not pinned: taskset unavailable or refused".into()
    }
}
