//! Order-sensitive 64-bit digests of inputs and answers, so two runs
//! (or two commits) can be compared for bit-identical output.

use sws_dag::CsrDelta;
use sws_model::schedule::{Assignment, TimedSchedule};
use sws_model::solve::Solution;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    pub fn floats(&mut self, vs: &[f64]) {
        for &v in vs {
            self.float(v);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    pub fn delta(&mut self, delta: &CsrDelta) {
        match delta {
            CsrDelta::AddTask { preds, p, s } => {
                self.word(1);
                self.word(preds.len() as u64);
                for &u in preds {
                    self.word(u as u64);
                }
                self.float(*p);
                self.float(*s);
            }
            CsrDelta::CompleteTask { task } => {
                self.word(2);
                self.word(*task as u64);
            }
            CsrDelta::Recost { task, p, s } => {
                self.word(3);
                self.word(*task as u64);
                self.float(p.unwrap_or(-1.0));
                self.float(s.unwrap_or(-1.0));
            }
        }
    }

    pub fn schedule(&mut self, sched: &TimedSchedule) {
        self.word(sched.n() as u64);
        self.word(sched.m() as u64);
        for i in 0..sched.n() {
            self.word(sched.proc_of(i) as u64);
            self.float(sched.start(i));
        }
    }

    pub fn assignment(&mut self, asg: &Assignment) {
        self.word(asg.m() as u64);
        for &q in asg.as_slice() {
            self.word(q as u64);
        }
    }

    /// Every field of a solution that states the answer: schedule,
    /// objective values, guarantee, ratio bound and backend. The work
    /// count is left out: a warm replan and a cold solve report different
    /// round counts for the same answer.
    pub fn solution(&mut self, sol: &Solution) {
        self.schedule(&sol.schedule);
        self.float(sol.point.cmax);
        self.float(sol.point.mmax);
        self.float(sol.sum_ci.unwrap_or(-1.0));
        self.word(sol.achieved.label().len() as u64);
        for b in sol.achieved.label().bytes() {
            self.word(b as u64);
        }
        let (r1, r2) = sol.ratio_bound.unwrap_or((-1.0, -1.0));
        self.float(r1);
        self.float(r2);
        for b in sol.stats.backend.label().bytes() {
            self.word(b as u64);
        }
    }

    pub fn of_solution(sol: &Solution) -> u64 {
        let mut d = Digest::default();
        d.solution(sol);
        d.value()
    }
}
