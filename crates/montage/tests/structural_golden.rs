//! Structural golden for the Montage generator: one digest over everything
//! a generated workflow exposes, pinned per mosaic size.
//!
//! The digest covers every task's name, module, runtime bits, inputs and
//! outputs; every file's name, size and deliverable flag; each file's
//! producer and consumers; each task's parents and children; and the
//! external-input and staged-out file sets. Any change to the generator or
//! to `WorkflowBuilder` that moves a single id, byte or bit changes it.
//!
//! The 16° case takes a few seconds in a debug build, so it is ignored by
//! default; run it with
//! `cargo test --release -p mcloud-montage -- --ignored`.

use mcloud_dag::{FileId, TaskId, Workflow};
use mcloud_montage::{generate, MosaicConfig};

/// FNV-1a, 64-bit: a stable digest that does not depend on std's hasher.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn files(&mut self, ids: &[FileId]) {
        self.u64(ids.len() as u64);
        for f in ids {
            self.u64(f.index() as u64);
        }
    }

    fn tasks(&mut self, ids: &[TaskId]) {
        self.u64(ids.len() as u64);
        for t in ids {
            self.u64(t.index() as u64);
        }
    }
}

fn structural_digest(wf: &Workflow) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.str(wf.name());
    h.u64(wf.num_tasks() as u64);
    for task in wf.tasks() {
        h.str(task.name);
        h.str(task.module);
        h.u64(task.runtime_s.to_bits());
        h.files(task.inputs);
        h.files(task.outputs);
    }
    h.u64(wf.num_files() as u64);
    for (f, file) in wf.file_ids().zip(wf.files()) {
        h.str(file.name);
        h.u64(file.bytes);
        h.u64(u64::from(file.deliverable));
        h.u64(wf.producer(f).map_or(u64::MAX, |t| t.index() as u64));
        h.tasks(wf.consumers(f));
    }
    for t in wf.task_ids() {
        h.tasks(wf.parents(t));
        h.tasks(wf.children(t));
    }
    h.files(wf.external_inputs());
    h.files(wf.staged_out_files());
    h.0
}

fn digest_at(degrees: f64) -> u64 {
    structural_digest(&generate(&MosaicConfig::new(degrees)))
}

#[test]
fn generated_workflows_match_their_structural_digests() {
    for (degrees, want) in [
        (1.0, 0xc70b_03dc_a715_26bf_u64),
        (2.0, 0xaef5_8b16_f500_3cd8),
        (4.0, 0x3174_7448_3219_897c),
        (8.0, 0x6c4f_31fb_0769_25ff),
    ] {
        let got = digest_at(degrees);
        assert_eq!(got, want, "{degrees} deg: digest {got:#018x}");
    }
}

#[test]
#[ignore = "slow in debug builds; run with --release -- --ignored"]
fn sixteen_degree_workflow_matches_its_structural_digest() {
    let got = digest_at(16.0);
    assert_eq!(got, 0x5734_d810_4918_7705, "16 deg: digest {got:#018x}");
}
