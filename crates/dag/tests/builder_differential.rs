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
//!
//! The reference owns a `String` per name and a `Vec` per file list, so
//! comparing through the workflow's `TaskRef`/`FileRef` views also checks
//! the builder's storage: the name arenas, the interned modules (many more
//! than Montage's nine here) and the CSR input/output rows, including
//! their rollback when an `add_task` fails. The same comparison covers the
//! workflows that `from_dax`, `merge_workflows` and `replicate_workflow`
//! rebuild from a built one.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use mcloud_dag::{
    from_dax, merge_workflows, replicate_workflow, to_dax, DagError, FileId, TaskId, Workflow,
    WorkflowBuilder,
};

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
            modules: modules_in_first_use_order(self.tasks.iter().map(|t| t.module.as_str())),
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

#[derive(Debug, Clone, Default, PartialEq)]
struct Snapshot {
    tasks: Vec<TaskRow>,
    /// Distinct modules in order of first use: the builder's interning
    /// order.
    modules: Vec<String>,
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
            .map(|t| {
                (
                    t.name.to_owned(),
                    t.module.to_owned(),
                    t.runtime_s.to_bits(),
                    t.inputs.to_vec(),
                    t.outputs.to_vec(),
                )
            })
            .collect(),
        modules: wf.modules().map(str::to_owned).collect(),
        files: wf
            .files()
            .map(|f| (f.name.to_owned(), f.bytes, f.deliverable))
            .collect(),
        producer: wf.file_ids().map(|f| wf.producer(f)).collect(),
        consumers: wf.file_ids().map(|f| wf.consumers(f).to_vec()).collect(),
        parents: wf.task_ids().map(|t| wf.parents(t).to_vec()).collect(),
        children: wf.task_ids().map(|t| wf.children(t).to_vec()).collect(),
        external_inputs: wf.external_inputs().to_vec(),
        staged_out: wf.staged_out_files().to_vec(),
    }
}

fn modules_in_first_use_order<'a>(modules: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for m in modules {
        if !out.iter().any(|seen| seen == m) {
            out.push(m.to_owned());
        }
    }
    out
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
        module: usize,
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
    modules: usize,
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
                module: rng.below(shape.modules),
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

/// Module names of different lengths, so a rolled-back or misindexed
/// module shows up as a wrong string, not just a wrong index.
fn module_name(i: usize) -> String {
    format!("m{}{}", "x".repeat(i % 4), i)
}

fn file_bytes(i: usize) -> u64 {
    1 + (i as u64 * 7919) % 100_000
}

/// Replays `ops` through both builders, comparing step by step and then
/// the lookups and the built workflow; returns the built workflow and its
/// reference snapshot when the build succeeded.
fn replay<S: BuildHasher>(
    ops: &[Op],
    shape: &Shape,
    mut b: WorkflowBuilder<S>,
    ctx: &str,
) -> Option<(Workflow, Snapshot)> {
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
                module,
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
                let module = module_name(*module);
                let name = task_name(*name);
                let got = b.add_task(name.as_str(), &module, *runtime_s, &ins, &outs);
                let want = r.add_task(&name, &module, *runtime_s, &ins, &outs);
                assert_eq!(outcome(&got), outcome(&want), "{at}");
                // A failed call must leave no trace of its name behind.
                assert_eq!(
                    b.find_task(&name),
                    r.by_task_name.get(&name).copied(),
                    "{at}"
                );
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
    let got = b.build();
    let want = r.build();
    match (got, want) {
        (Ok(wf), Ok(want)) => {
            assert_eq!(snapshot(&wf), want, "{ctx}: built workflows differ");
            Some((wf, want))
        }
        (got, want) => {
            assert_eq!(
                outcome(&got.map(|wf| snapshot(&wf))),
                outcome(&want),
                "{ctx}: build outcome"
            );
            None
        }
    }
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
        modules: 4,
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
        modules: 24,
        ops: 60,
        max_fan: 8,
        layered: true,
        control_percent: 2,
    },
    // Wide fan-in with repeats, like mConcatFit and mAdd.
    Shape {
        files: 400,
        task_names: 200,
        modules: 40,
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
            if replay(&ops, shape, WorkflowBuilder::new("w"), &ctx).is_some() {
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

/// Every way an `add_task` can fail, each with a name and file lists the
/// successful calls do not use: none of it may reach the built workflow,
/// its name arenas, its io rows or its module list.
#[test]
fn failed_add_task_rolls_back_names_rows_and_modules() {
    fn check<S: BuildHasher>(mut b: WorkflowBuilder<S>) {
        let a = b.file("a", 1);
        let c = b.file("c", 2);
        let x = b.file("x", 3);
        let y = b.file("y", 4);
        let t0 = b.add_task("t0", "mFirst", 1.0, &[a], &[x]).unwrap();
        let failures = [
            b.add_task("t0", "mDuplicateName", 1.0, &[c, a], &[y]),
            b.add_task("bad-runtime", "mBadRuntime", -1.0, &[c], &[y]),
            b.add_task("self-loop-long-name", "mSelfLoop", 1.0, &[c, a, c], &[y, a]),
            b.add_task("second-producer", "mSecondProducer", 1.0, &[a, c], &[y, x]),
        ];
        assert!(failures.iter().all(Result::is_err), "{failures:?}");
        for name in ["bad-runtime", "self-loop-long-name", "second-producer"] {
            assert_eq!(b.find_task(name), None, "{name}");
        }
        assert_eq!(b.find_task("t0"), Some(t0));
        assert_eq!(b.find_file("y"), Some(y));
        let t1 = b.add_task("t1", "mSecond", 2.0, &[x, c], &[y]).unwrap();
        assert_eq!(b.find_task("t1"), Some(t1));
        let wf = b.build().unwrap();
        let names: Vec<&str> = wf.tasks().map(|t| t.name).collect();
        assert_eq!(names, ["t0", "t1"]);
        assert_eq!(wf.modules().collect::<Vec<_>>(), ["mFirst", "mSecond"]);
        assert_eq!(wf.task(t1).module, "mSecond");
        assert_eq!(wf.task(t0).inputs, [a]);
        assert_eq!(wf.task(t0).outputs, [x]);
        assert_eq!(wf.task(t1).inputs, [x, c]);
        assert_eq!(wf.task(t1).outputs, [y]);
        assert_eq!(wf.producer(y), Some(t1));
        assert_eq!(wf.consumers(c), [t1]);
    }
    check(WorkflowBuilder::new("w"));
    check(WorkflowBuilder::with_hasher("w", Constant::default()));
}

/// Tasks with their file lists by name, for workflows whose file ids
/// differ from the reference's.
type NamedTask = (String, String, u64, Vec<String>, Vec<String>);

fn named_tasks(s: &Snapshot) -> Vec<NamedTask> {
    let names = |ids: &[FileId]| ids.iter().map(|f| s.files[f.index()].0.clone()).collect();
    s.tasks
        .iter()
        .map(|(name, module, bits, ins, outs)| {
            (name.clone(), module.clone(), *bits, names(ins), names(outs))
        })
        .collect()
}

/// The snapshot `merge_workflows` must produce from these parts: each
/// part's files, then its tasks, under a `b<i>__` prefix, with ids offset
/// by the parts before it. Parents and children are left out: the merge
/// keeps only file-derived edges, and the random test covers adjacency.
fn merged(parts: &[&Snapshot]) -> Snapshot {
    let mut out = Snapshot::default();
    for (i, part) in parts.iter().enumerate() {
        let (f0, t0) = (out.files.len() as u32, out.tasks.len() as u32);
        let file = |f: &FileId| FileId(f.0 + f0);
        let task = |t: &TaskId| TaskId(t.0 + t0);
        let files = |ids: &[FileId]| ids.iter().map(file).collect::<Vec<_>>();
        let tasks = |ids: &[TaskId]| ids.iter().map(task).collect::<Vec<_>>();
        out.files.extend(
            part.files
                .iter()
                .map(|(name, bytes, d)| (format!("b{i}__{name}"), *bytes, *d)),
        );
        out.tasks
            .extend(part.tasks.iter().map(|(name, module, bits, ins, outs)| {
                let name = format!("b{i}__{name}");
                (name, module.clone(), *bits, files(ins), files(outs))
            }));
        out.producer
            .extend(part.producer.iter().map(|p| p.as_ref().map(task)));
        out.consumers
            .extend(part.consumers.iter().map(|row| tasks(row)));
        out.external_inputs.extend(files(&part.external_inputs));
        out.staged_out.extend(files(&part.staged_out));
    }
    out.modules = modules_in_first_use_order(out.tasks.iter().map(|t| t.1.as_str()));
    out
}

fn without_adjacency(mut s: Snapshot) -> Snapshot {
    s.parents.clear();
    s.children.clear();
    s
}

/// `from_dax`, `merge_workflows` and `replicate_workflow` copy names,
/// modules and file lists out of a built workflow's views into a new
/// builder; the workflows they build must match the reference.
#[test]
fn rebuilt_workflows_match_the_reference() {
    let mut built = Vec::new();
    for (s, shape) in SHAPES.iter().enumerate().skip(1) {
        for case in 0..40u64 {
            let mut rng = Rng(0x4EB0_1D00 ^ ((s as u64) << 32) ^ case);
            let ops = random_ops(&mut rng, shape);
            let ctx = format!("rebuild, shape {s}, case {case}");
            if let Some(pair) = replay(&ops, shape, WorkflowBuilder::new("w"), &ctx) {
                built.push((ctx, pair));
            }
        }
    }
    assert!(built.len() >= 40, "only {} builds succeeded", built.len());
    let most_modules = built.iter().map(|(_, (wf, _))| wf.modules().len()).max();
    assert!(most_modules > Some(9), "{most_modules:?} modules at most");

    for pair in built.windows(2) {
        let (ctx, (wf, want)) = &pair[0];
        let (_, (other, other_want)) = &pair[1];

        let back = from_dax(&to_dax(wf)).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let got = snapshot(&back);
        assert_eq!(named_tasks(&got), named_tasks(want), "{ctx}: DAX tasks");
        assert_eq!(got.modules, want.modules, "{ctx}: DAX modules");

        let merge = merge_workflows("m", &[wf, other]).unwrap();
        assert_eq!(
            without_adjacency(snapshot(&merge)),
            merged(&[want, other_want]),
            "{ctx}: merged"
        );

        let copies = replicate_workflow("r", wf, 3).unwrap();
        assert_eq!(
            without_adjacency(snapshot(&copies)),
            merged(&[want, want, want]),
            "{ctx}: replicated"
        );
    }
}
