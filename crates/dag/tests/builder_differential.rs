//! Differential test of `WorkflowBuilder` against a reference builder.
//!
//! The reference below is the straightforward algorithm: a quadratic
//! order-preserving dedup of each task's file lists, per-file consumer
//! lists grown as tasks arrive, and parent/child lists assembled as
//! `Vec<Vec<_>>` and sorted at build time. It exists only here. Seeded
//! random sequences of file registrations, `add_task` calls (with repeated
//! inputs and outputs, self-loops, second producers, repeated names, bad
//! runtimes and forward file references) and control edges are replayed
//! through both, and every result, error and derived adjacency must agree.
//!
//! Like the builder, the reference checks every output for an existing
//! producer before claiming any, so a failed `add_task` leaves it unchanged.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use mcloud_dag::{DagError, FileId, TaskId, Workflow, WorkflowBuilder};

// ---------------------------------------------------------------------------
// Reference builder

struct RefTask {
    name: String,
    module: String,
    runtime_s: f64,
    inputs: Vec<FileId>,
    outputs: Vec<FileId>,
}

#[derive(Default)]
struct RefBuilder {
    tasks: Vec<RefTask>,
    files: Vec<(String, u64, bool)>,
    by_file_name: HashMap<String, FileId>,
    by_task_name: HashMap<String, TaskId>,
    producer: Vec<Option<TaskId>>,
    consumers: Vec<Vec<TaskId>>,
    control_edges: Vec<(TaskId, TaskId)>,
}

fn dedup_preserving(ids: &[FileId]) -> Vec<FileId> {
    let mut out = Vec::with_capacity(ids.len());
    for &f in ids {
        if !out.contains(&f) {
            out.push(f);
        }
    }
    out
}

impl RefBuilder {
    fn file(&mut self, name: &str, bytes: u64) -> FileId {
        if let Some(&id) = self.by_file_name.get(name) {
            assert_eq!(self.files[id.index()].1, bytes);
            return id;
        }
        let id = FileId(self.files.len() as u32);
        self.files.push((name.to_string(), bytes, false));
        self.producer.push(None);
        self.consumers.push(Vec::new());
        self.by_file_name.insert(name.to_string(), id);
        id
    }

    fn add_task(
        &mut self,
        name: &str,
        module: &str,
        runtime_s: f64,
        inputs: &[FileId],
        outputs: &[FileId],
    ) -> Result<TaskId, DagError> {
        let name = name.to_string();
        if self.by_task_name.contains_key(&name) {
            return Err(DagError::DuplicateTaskName(name));
        }
        if !runtime_s.is_finite() || runtime_s < 0.0 {
            return Err(DagError::InvalidRuntime {
                task: name,
                runtime: runtime_s,
            });
        }
        let inputs = dedup_preserving(inputs);
        let outputs = dedup_preserving(outputs);
        if let Some(f) = outputs.iter().find(|f| inputs.contains(f)) {
            return Err(DagError::SelfLoop {
                task: name,
                file: self.files[f.index()].0.clone(),
            });
        }
        for &f in &outputs {
            if let Some(first) = self.producer[f.index()] {
                return Err(DagError::DuplicateProducer {
                    file: self.files[f.index()].0.clone(),
                    first: self.tasks[first.index()].name.clone(),
                    second: name,
                });
            }
        }
        let id = TaskId(self.tasks.len() as u32);
        for &f in &outputs {
            self.producer[f.index()] = Some(id);
        }
        for &f in &inputs {
            self.consumers[f.index()].push(id);
        }
        self.by_task_name.insert(name.clone(), id);
        self.tasks.push(RefTask {
            name,
            module: module.to_string(),
            runtime_s,
            inputs,
            outputs,
        });
        Ok(id)
    }

    fn build(self) -> Result<Snapshot, DagError> {
        if self.tasks.is_empty() {
            return Err(DagError::Empty);
        }
        let n = self.tasks.len();
        let mut parents: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<TaskId>> = vec![Vec::new(); n];
        for (t_idx, task) in self.tasks.iter().enumerate() {
            for &f in &task.inputs {
                if let Some(p) = self.producer[f.index()] {
                    parents[t_idx].push(p);
                    children[p.index()].push(TaskId(t_idx as u32));
                }
            }
        }
        for &(p, c) in &self.control_edges {
            parents[c.index()].push(p);
            children[p.index()].push(c);
        }
        for list in parents.iter_mut().chain(children.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        let mut indeg: Vec<usize> = parents.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = ready.pop() {
            seen += 1;
            for c in &children[i] {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    ready.push(c.index());
                }
            }
        }
        if seen != n {
            let on_cycle = indeg.iter().position(|&d| d > 0).unwrap();
            return Err(DagError::Cycle {
                task: self.tasks[on_cycle].name.clone(),
            });
        }
        let files = self.files.len() as u32;
        let external_inputs = (0..files)
            .map(FileId)
            .filter(|f| self.producer[f.index()].is_none())
            .collect();
        let staged_out = (0..files)
            .map(FileId)
            .filter(|f| {
                self.producer[f.index()].is_some()
                    && (self.files[f.index()].2 || self.consumers[f.index()].is_empty())
            })
            .collect();
        Ok(Snapshot {
            tasks: self
                .tasks
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        t.module.clone(),
                        t.runtime_s.to_bits(),
                        t.inputs.clone(),
                        t.outputs.clone(),
                    )
                })
                .collect(),
            files: self.files,
            producer: self.producer,
            consumers: self.consumers,
            parents,
            children,
            external_inputs,
            staged_out,
        })
    }
}

// ---------------------------------------------------------------------------
// What both builders are compared on

type TaskRow = (String, String, u64, Vec<FileId>, Vec<FileId>);

#[derive(Debug, PartialEq)]
struct Snapshot {
    tasks: Vec<TaskRow>,
    files: Vec<(String, u64, bool)>,
    producer: Vec<Option<TaskId>>,
    consumers: Vec<Vec<TaskId>>,
    parents: Vec<Vec<TaskId>>,
    children: Vec<Vec<TaskId>>,
    external_inputs: Vec<FileId>,
    staged_out: Vec<FileId>,
}

fn snapshot(wf: &Workflow) -> Snapshot {
    Snapshot {
        tasks: wf
            .tasks()
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    t.module.clone(),
                    t.runtime_s.to_bits(),
                    t.inputs.clone(),
                    t.outputs.clone(),
                )
            })
            .collect(),
        files: wf
            .files()
            .iter()
            .map(|f| (f.name.clone(), f.bytes, f.deliverable))
            .collect(),
        producer: wf.file_ids().map(|f| wf.producer(f)).collect(),
        consumers: wf.file_ids().map(|f| wf.consumers(f).to_vec()).collect(),
        parents: wf.task_ids().map(|t| wf.parents(t).to_vec()).collect(),
        children: wf.task_ids().map(|t| wf.children(t).to_vec()).collect(),
        external_inputs: wf.external_inputs().to_vec(),
        staged_out: wf.staged_out_files().to_vec(),
    }
}

/// Errors compared by their debug form, so a NaN runtime compares equal.
fn outcome<T: std::fmt::Debug>(r: &Result<T, DagError>) -> String {
    format!("{r:?}")
}

// ---------------------------------------------------------------------------
// Random operation sequences

/// SplitMix64: deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

#[derive(Debug)]
enum Op {
    File(usize),
    Task {
        name: usize,
        runtime_s: f64,
        inputs: Vec<usize>,
        outputs: Vec<usize>,
    },
    /// Two draws, resolved against the tasks added so far.
    Control(u64, u64),
    Deliverable(usize),
}

struct Shape {
    files: usize,
    task_names: usize,
    ops: usize,
    max_fan: usize,
    /// Inputs below and outputs at or above a per-task pivot file index,
    /// which keeps the file edges acyclic so most builds succeed.
    layered: bool,
    control_percent: u64,
}

fn random_ops(rng: &mut Rng, shape: &Shape) -> Vec<Op> {
    let mut ops = Vec::with_capacity(shape.ops);
    for _ in 0..shape.ops {
        let roll = rng.below(100);
        if roll < 10 {
            ops.push(Op::File(rng.below(shape.files)));
        } else if roll < 10 + shape.control_percent as usize {
            ops.push(Op::Control(rng.next(), rng.next()));
        } else if roll < 13 + shape.control_percent as usize {
            ops.push(Op::Deliverable(rng.below(shape.files)));
        } else {
            let (in_range, out_range) = if shape.layered {
                let pivot = 1 + rng.below(shape.files - 1);
                (0..pivot, pivot..shape.files.min(pivot + 3))
            } else {
                (0..shape.files, 0..shape.files)
            };
            let pick = |rng: &mut Rng, range: &std::ops::Range<usize>, k: usize| {
                let mut v: Vec<usize> = (0..k)
                    .map(|_| range.start + rng.below(range.len()))
                    .collect();
                if !v.is_empty() && rng.chance(30) {
                    let dup = v[rng.below(v.len())];
                    v.insert(rng.below(v.len() + 1), dup);
                }
                v
            };
            let n_in = rng.below(shape.max_fan + 1);
            let n_out = rng.below(3);
            let mut inputs = pick(rng, &in_range, n_in);
            let mut outputs = pick(rng, &out_range, n_out);
            if !shape.layered && rng.chance(5) && !inputs.is_empty() {
                outputs.push(inputs[rng.below(inputs.len())]);
            }
            if shape.layered && rng.chance(3) && !outputs.is_empty() {
                inputs.push(outputs[0]);
            }
            let runtime_s = match rng.below(40) {
                0 => -1.0,
                1 => f64::NAN,
                2 => f64::INFINITY,
                _ => rng.below(1000) as f64 / 8.0,
            };
            ops.push(Op::Task {
                name: rng.below(shape.task_names),
                runtime_s,
                inputs,
                outputs,
            });
        }
    }
    ops
}

fn file_name(i: usize) -> String {
    format!("f{i}.fits")
}

fn task_name(i: usize) -> String {
    format!("t{i}")
}

fn file_bytes(i: usize) -> u64 {
    1 + (i as u64 * 7919) % 100_000
}

/// Replays `ops` through both builders, comparing step by step and then
/// the lookups and the built workflow; returns whether the build succeeded.
fn replay<S: BuildHasher>(ops: &[Op], shape: &Shape, mut b: WorkflowBuilder<S>, ctx: &str) -> bool {
    let mut r = RefBuilder::default();
    let mut added = 0u64;
    for (step, op) in ops.iter().enumerate() {
        let at = format!("{ctx}, step {step}: {op:?}");
        match op {
            Op::File(i) => {
                let name = file_name(*i);
                assert_eq!(
                    b.file(name.as_str(), file_bytes(*i)),
                    r.file(&name, file_bytes(*i)),
                    "{at}"
                );
            }
            Op::Task {
                name,
                runtime_s,
                inputs,
                outputs,
            } => {
                let register = |b: &mut WorkflowBuilder<S>, r: &mut RefBuilder, ids: &[usize]| {
                    let mut got = Vec::new();
                    for &i in ids {
                        let f = b.file(file_name(i), file_bytes(i));
                        assert_eq!(f, r.file(&file_name(i), file_bytes(i)), "{at}");
                        got.push(f);
                    }
                    got
                };
                let ins = register(&mut b, &mut r, inputs);
                let outs = register(&mut b, &mut r, outputs);
                let module = format!("m{}", name % 3);
                let name = task_name(*name);
                let got = b.add_task(name.as_str(), module.as_str(), *runtime_s, &ins, &outs);
                let want = r.add_task(&name, &module, *runtime_s, &ins, &outs);
                assert_eq!(outcome(&got), outcome(&want), "{at}");
                added += u64::from(got.is_ok());
            }
            Op::Control(p, c) => {
                if added > 0 {
                    let (p, c) = (TaskId((p % added) as u32), TaskId((c % added) as u32));
                    b.add_control_edge(p, c);
                    r.control_edges.push((p, c));
                }
            }
            Op::Deliverable(i) => {
                if let Some(f) = b.find_file(&file_name(*i)) {
                    assert_eq!(Some(&f), r.by_file_name.get(&file_name(*i)), "{at}");
                    b.mark_deliverable(f);
                    r.files[f.index()].2 = true;
                }
            }
        }
    }
    for i in 0..shape.files + 2 {
        let name = file_name(i);
        assert_eq!(
            b.find_file(&name),
            r.by_file_name.get(&name).copied(),
            "{ctx}: find_file({name})"
        );
    }
    for i in 0..shape.task_names + 2 {
        let name = task_name(i);
        assert_eq!(
            b.find_task(&name),
            r.by_task_name.get(&name).copied(),
            "{ctx}: find_task({name})"
        );
    }
    let got = b.build().map(|wf| snapshot(&wf));
    let want = r.build();
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert_eq!(g, w, "{ctx}: built workflows differ"),
        _ => assert_eq!(outcome(&got), outcome(&want), "{ctx}: build outcome"),
    }
    got.is_ok()
}

/// Every name hashes to the same value, so all but the first name of each
/// kind go through the index's collision path.
#[derive(Default)]
struct ConstantHasher;

impl Hasher for ConstantHasher {
    fn finish(&self) -> u64 {
        0x5eed
    }

    fn write(&mut self, _: &[u8]) {}
}

type Constant = BuildHasherDefault<ConstantHasher>;

const SHAPES: [Shape; 3] = [
    // Small pools: repeated names, second producers, self-loops and
    // cycles are common, so most sequences exercise the error paths.
    Shape {
        files: 10,
        task_names: 8,
        ops: 30,
        max_fan: 5,
        layered: false,
        control_percent: 6,
    },
    // Layered: mostly acyclic, so most builds succeed and the adjacency
    // is compared.
    Shape {
        files: 60,
        task_names: 50,
        ops: 60,
        max_fan: 8,
        layered: true,
        control_percent: 2,
    },
    // Wide fan-in with repeats, like mConcatFit and mAdd.
    Shape {
        files: 400,
        task_names: 200,
        ops: 150,
        max_fan: 120,
        layered: true,
        control_percent: 1,
    },
];

/// Both outcomes of `build` must come up often enough for the comparison
/// to mean something.
#[test]
fn builder_matches_reference_on_random_sequences() {
    let (mut ok, mut failed) = (0, 0);
    for (s, shape) in SHAPES.iter().enumerate() {
        for case in 0..300u64 {
            let mut rng = Rng(0xB111_D000 ^ ((s as u64) << 32) ^ case);
            let ops = random_ops(&mut rng, shape);
            let ctx = format!("shape {s}, case {case}");
            if replay(&ops, shape, WorkflowBuilder::new("w"), &ctx) {
                ok += 1;
            } else {
                failed += 1;
            }
        }
    }
    assert!(ok >= 300 && failed >= 100, "ok {ok}, failed {failed}");
}

#[test]
fn builder_matches_reference_through_the_collision_path() {
    for (s, shape) in SHAPES.iter().enumerate().take(2) {
        for case in 0..100u64 {
            let mut rng = Rng(0xC011_1DE0 ^ ((s as u64) << 32) ^ case);
            let ops = random_ops(&mut rng, shape);
            let ctx = format!("constant hasher, shape {s}, case {case}");
            replay(
                &ops,
                shape,
                WorkflowBuilder::with_hasher("w", Constant::default()),
                &ctx,
            );
        }
    }
}

/// A failed `add_task` consumes a stamp epoch but pushes no task; the next
/// call on the same files must still see all of its inputs as new.
#[test]
fn failed_add_task_does_not_hide_the_next_calls_inputs() {
    fn check<S: BuildHasher>(mut b: WorkflowBuilder<S>) {
        let a = b.file("a", 1);
        let c = b.file("c", 1);
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        let err = b.add_task("t0", "m", 1.0, &[a, c], &[x, a]).unwrap_err();
        assert_eq!(
            err,
            DagError::SelfLoop {
                task: "t0".into(),
                file: "a".into()
            }
        );
        let t = b.add_task("t0", "m", 1.0, &[a, c, a], &[x, x]).unwrap();
        assert_eq!(t, TaskId(0));
        // A second producer fails before claiming `y`, which stays free.
        let err = b.add_task("t1", "m", 1.0, &[a], &[y, x]).unwrap_err();
        assert!(matches!(err, DagError::DuplicateProducer { ref file, .. } if file == "x"));
        let u = b.add_task("t1", "m", 1.0, &[c, a], &[y]).unwrap();
        let wf = b.build().unwrap();
        assert_eq!(wf.task(t).inputs, vec![a, c]);
        assert_eq!(wf.task(t).outputs, vec![x]);
        assert_eq!(wf.task(u).inputs, vec![c, a]);
        assert_eq!(wf.producer(y), Some(u));
        assert_eq!(wf.consumers(a), &[t, u]);
    }
    check(WorkflowBuilder::new("w"));
    check(WorkflowBuilder::with_hasher("w", Constant::default()));
}

/// The self-loop error names the first output, in output order, that is
/// also an input.
#[test]
fn self_loop_names_the_first_offending_output() {
    let mut b = WorkflowBuilder::with_hasher("w", Constant::default());
    let f: Vec<FileId> = (0..5).map(|i| b.file(file_name(i), 1)).collect();
    let err = b
        .add_task("t", "m", 1.0, &[f[0], f[3], f[2]], &[f[4], f[2], f[3]])
        .unwrap_err();
    assert_eq!(
        err,
        DagError::SelfLoop {
            task: "t".into(),
            file: file_name(2)
        }
    );
}
