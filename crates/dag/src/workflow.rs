//! The workflow graph: tasks connected by write-once data files.
//!
//! Dependencies are expressed exactly as in the paper (and in Pegasus): a
//! task that reads file `b` depends on the task that produced `b`. Files
//! with no producer are *external inputs* that must be staged in from the
//! user/archive; files nobody consumes (or files explicitly marked
//! *deliverable*, like the final mosaic) are staged out to the user at the
//! end of the run.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::error::DagError;
use crate::ids::{FileId, TaskId};

/// A data product moved through the workflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Unique logical file name (e.g. `proj_2_3.fits`).
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Marked for stage-out to the user even if some task consumes it
    /// (e.g. the final mosaic, which `mShrink` also reads).
    pub deliverable: bool,
}

/// One invocation of an application routine.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique task name (e.g. `mProject_12`).
    pub name: String,
    /// The routine this task invokes (e.g. `mProject`); the paper calls all
    /// same-level Montage tasks invocations of the same routine.
    pub module: String,
    /// Runtime on the reference CPU, in seconds.
    pub runtime_s: f64,
    /// Files read (deduplicated, in registration order).
    pub inputs: Vec<FileId>,
    /// Files written (deduplicated, in registration order).
    pub outputs: Vec<FileId>,
}

/// Adjacency lists flattened into compressed-sparse-row form: the list for
/// row `i` lives at `ids[offsets[i]..offsets[i + 1]]`. One offsets array
/// plus one flat ids array replaces a `Vec<Vec<_>>`, so looking up a row is
/// two loads with no pointer chase per row and the whole structure is two
/// allocations regardless of row count.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<u32>,
    ids: Vec<TaskId>,
}

impl Csr {
    /// Groups `(row, id)` pairs into `rows` rows with a stable counting
    /// sort: each row lists its ids in iteration order. The pairs are
    /// walked twice, once to count and once to fill.
    fn group(rows: usize, pairs: impl Iterator<Item = (usize, TaskId)> + Clone) -> Self {
        let mut offsets = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            offsets[r + 1] += 1;
        }
        for r in 0..rows {
            offsets[r + 1] = offsets[r]
                .checked_add(offsets[r + 1])
                .expect("adjacency exceeds the u32 offset range");
        }
        let mut next = offsets[..rows].to_vec();
        let mut ids = vec![TaskId(0); offsets[rows] as usize];
        for (r, id) in pairs {
            ids[next[r] as usize] = id;
            next[r] += 1;
        }
        Csr { offsets, ids }
    }

    /// Drops repeated ids within each row. Duplicates must be adjacent,
    /// which holds for sorted rows.
    fn dedup_sorted_rows(&mut self) {
        let mut write = 0usize;
        let mut start = 0usize;
        for r in 0..self.offsets.len() - 1 {
            let end = self.offsets[r + 1] as usize;
            for i in start..end {
                let id = self.ids[i];
                if i == start || id != self.ids[write - 1] {
                    self.ids[write] = id;
                    write += 1;
                }
            }
            start = end;
            self.offsets[r + 1] = write as u32;
        }
        self.ids.truncate(write);
    }

    /// Every `(row, id)` pair, rows in order.
    fn pairs(&self) -> impl Iterator<Item = (usize, TaskId)> + Clone + '_ {
        self.offsets.windows(2).enumerate().flat_map(move |(r, w)| {
            self.ids[w[0] as usize..w[1] as usize]
                .iter()
                .map(move |&id| (r, id))
        })
    }

    fn row(&self, i: usize) -> &[TaskId] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// An immutable, validated workflow DAG.
///
/// Construct via [`WorkflowBuilder`]; validation guarantees the graph is
/// non-empty, acyclic, and that every file has at most one producer.
///
/// All adjacency (file consumers, task parents/children) is stored in CSR
/// form and every derived file set (external inputs, staged-out files) is
/// computed once at construction, so the accessors used by the simulation
/// engine's event loop are allocation-free slice borrows.
#[derive(Debug, Clone)]
pub struct Workflow {
    name: String,
    tasks: Vec<Task>,
    files: Vec<FileMeta>,
    producer: Vec<Option<TaskId>>,
    consumers: Csr,
    parents: Csr,
    children: Csr,
    external_inputs: Vec<FileId>,
    staged_out: Vec<FileId>,
}

impl Workflow {
    /// The workflow's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of distinct files.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// All tasks, indexable by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All files, indexable by [`FileId`].
    pub fn files(&self) -> &[FileMeta] {
        &self.files
    }

    /// A single task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// A single file.
    pub fn file(&self, id: FileId) -> &FileMeta {
        &self.files[id.index()]
    }

    /// Iterator over all task ids in index order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Iterator over all file ids in index order.
    pub fn file_ids(&self) -> impl ExactSizeIterator<Item = FileId> {
        (0..self.files.len() as u32).map(FileId)
    }

    /// The task that writes `file`, or `None` for an external input.
    pub fn producer(&self, file: FileId) -> Option<TaskId> {
        self.producer[file.index()]
    }

    /// Tasks that read `file`, sorted by id.
    pub fn consumers(&self, file: FileId) -> &[TaskId] {
        self.consumers.row(file.index())
    }

    /// Distinct tasks whose outputs this task reads, sorted by id.
    pub fn parents(&self, task: TaskId) -> &[TaskId] {
        self.parents.row(task.index())
    }

    /// Distinct tasks that read this task's outputs, sorted by id.
    pub fn children(&self, task: TaskId) -> &[TaskId] {
        self.children.row(task.index())
    }

    /// Files with no producer: they are staged in from the user/archive.
    /// Computed once at construction; sorted by file id.
    pub fn external_inputs(&self) -> &[FileId] {
        &self.external_inputs
    }

    /// Files that are staged out to the user at the end of the workflow:
    /// produced files that either nobody consumes or that are explicitly
    /// marked deliverable (the paper's "net output of the workflow").
    /// Computed once at construction; sorted by file id.
    pub fn staged_out_files(&self) -> &[FileId] {
        &self.staged_out
    }

    /// Multiplies every file size by `factor`, rounding to the nearest byte
    /// (sizes of at least one byte never round to zero). Used by the
    /// paper's CCR experiments, which rescale all data to hit a desired
    /// communication-to-computation ratio.
    ///
    /// # Panics
    /// Panics if `factor` is not finite and positive.
    pub fn scale_file_sizes(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive and finite, got {factor}"
        );
        for f in &mut self.files {
            if f.bytes > 0 {
                f.bytes = ((f.bytes as f64 * factor).round() as u64).max(1);
            }
        }
    }

    fn from_parts(
        name: String,
        tasks: Vec<Task>,
        files: Vec<FileMeta>,
        producer: Vec<Option<TaskId>>,
        consumers: Csr,
        parents: Csr,
        children: Csr,
    ) -> Self {
        let external_inputs: Vec<FileId> = (0..files.len() as u32)
            .map(FileId)
            .filter(|f| producer[f.index()].is_none())
            .collect();
        let staged_out: Vec<FileId> = (0..files.len() as u32)
            .map(FileId)
            .filter(|f| {
                producer[f.index()].is_some()
                    && (files[f.index()].deliverable || consumers.row(f.index()).is_empty())
            })
            .collect();
        Workflow {
            name,
            tasks,
            files,
            producer,
            consumers,
            parents,
            children,
            external_inputs,
            staged_out,
        }
    }
}

/// Which table a name in a [`NameIndex`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NameKind {
    File = 0,
    Task = 1,
}

/// Name lookup for files and tasks that does not store the names twice.
///
/// The index keys each entry by a 64-bit hash of its kind and name and
/// confirms a hit against the name the builder already stores in its
/// [`FileMeta`] or [`Task`]. A name whose hash slot is taken by a different
/// name goes to a per-kind overflow map, which owns a copy of it; with a
/// good hasher that map stays empty.
#[derive(Debug, Default)]
struct NameIndex<S> {
    hasher: S,
    slots: HashMap<u64, (NameKind, u32), BuildHasherDefault<PreHashed>>,
    overflow: [HashMap<String, u32>; 2],
}

impl<S: BuildHasher> NameIndex<S> {
    fn hash(&self, kind: NameKind, name: &str) -> u64 {
        self.hasher.hash_one((kind as u8, name))
    }

    /// The id stored under `name`, whose hash is `hash`; `stored` maps an
    /// id of this kind back to its name.
    fn get<'a>(
        &self,
        hash: u64,
        kind: NameKind,
        name: &str,
        stored: impl Fn(u32) -> &'a str,
    ) -> Option<u32> {
        match self.slots.get(&hash) {
            Some(&(k, id)) if k == kind && stored(id) == name => Some(id),
            Some(_) => self.overflow[kind as usize].get(name).copied(),
            None => None,
        }
    }

    /// Adds a name that [`NameIndex::get`] has just reported absent.
    fn insert(&mut self, hash: u64, kind: NameKind, name: &str, id: u32) {
        match self.slots.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert((kind, id));
            }
            Entry::Occupied(_) => {
                self.overflow[kind as usize].insert(name.to_owned(), id);
            }
        }
    }
}

/// Hasher for keys that already are hashes.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("PreHashed only hashes u64 keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Incremental, validating constructor for [`Workflow`].
///
/// Construction is linear in the number of task-file edges: `add_task`
/// deduplicates its file lists with one pass over a per-file stamp array,
/// and `build` assembles the adjacency with counting passes. `S` hashes
/// names for the file and task lookups; see [`WorkflowBuilder::with_hasher`].
///
/// ```
/// use mcloud_dag::WorkflowBuilder;
///
/// // The paper's Figure 3 skeleton: task 0 produces `b`, read by 1 and 2.
/// let mut b = WorkflowBuilder::new("example");
/// let fa = b.file("a", 100);
/// let fb = b.file("b", 200);
/// let fc = b.file("c", 50);
/// let fd = b.file("d", 50);
/// b.add_task("t0", "gen", 10.0, &[fa], &[fb]).unwrap();
/// b.add_task("t1", "use", 5.0, &[fb], &[fc]).unwrap();
/// b.add_task("t2", "use", 5.0, &[fb], &[fd]).unwrap();
/// let wf = b.build().unwrap();
/// assert_eq!(wf.num_tasks(), 3);
/// assert_eq!(wf.consumers(fb).len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct WorkflowBuilder<S = RandomState> {
    name: String,
    tasks: Vec<Task>,
    files: Vec<FileMeta>,
    names: NameIndex<S>,
    producer: Vec<Option<TaskId>>,
    /// Per-file mark of the last `add_task` pass that saw the file; see
    /// [`WorkflowBuilder::next_marks`].
    stamp: Vec<u32>,
    epoch: u32,
    /// Explicit `(parent, child)` control edges (Pegasus DAX
    /// `<child>/<parent>`), merged with the file-derived edges at build.
    control_edges: Vec<(TaskId, TaskId)>,
}

impl WorkflowBuilder {
    /// Starts an empty workflow with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_hasher(name, RandomState::new())
    }
}

impl<S: BuildHasher> WorkflowBuilder<S> {
    /// Starts an empty workflow whose name index hashes with `hasher`.
    /// Lookups are exact for any hasher; a weak one only sends more names
    /// to the index's overflow map.
    pub fn with_hasher(name: impl Into<String>, hasher: S) -> Self {
        WorkflowBuilder {
            name: name.into(),
            tasks: Vec::new(),
            files: Vec::new(),
            names: NameIndex {
                hasher,
                slots: HashMap::default(),
                overflow: Default::default(),
            },
            producer: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            control_edges: Vec::new(),
        }
    }

    /// Registers (or looks up) a file by name. Registration is idempotent.
    ///
    /// # Panics
    /// Panics if the name was already registered with a *different* size —
    /// that is always a bug in the calling generator.
    pub fn file(&mut self, name: impl Into<String>, bytes: u64) -> FileId {
        let name = name.into();
        let (hash, found) = self.lookup(NameKind::File, &name);
        if let Some(id) = found {
            assert_eq!(
                self.files[id as usize].bytes, bytes,
                "file '{name}' re-registered with a different size"
            );
            return FileId(id);
        }
        let id = FileId(self.files.len() as u32);
        self.names.insert(hash, NameKind::File, &name, id.0);
        self.files.push(FileMeta {
            name,
            bytes,
            deliverable: false,
        });
        self.producer.push(None);
        self.stamp.push(0);
        id
    }

    /// Looks up a previously registered file by name.
    pub fn find_file(&self, name: &str) -> Option<FileId> {
        self.lookup(NameKind::File, name).1.map(FileId)
    }

    /// The hash of `name` in the name index and the id stored under it.
    fn lookup(&self, kind: NameKind, name: &str) -> (u64, Option<u32>) {
        let hash = self.names.hash(kind, name);
        let id = self.names.get(hash, kind, name, |id| match kind {
            NameKind::File => &self.files[id as usize].name,
            NameKind::Task => &self.tasks[id as usize].name,
        });
        (hash, id)
    }

    /// Marks a file for stage-out to the user even if tasks consume it.
    pub fn mark_deliverable(&mut self, file: FileId) {
        self.files[file.index()].deliverable = true;
    }

    /// Adds a task. Input/output file lists are deduplicated preserving
    /// order. Fails on duplicate task names, invalid runtimes, a file that
    /// is both input and output, or a second producer for a file; a failed
    /// call leaves the builder unchanged.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        module: impl Into<String>,
        runtime_s: f64,
        inputs: &[FileId],
        outputs: &[FileId],
    ) -> Result<TaskId, DagError> {
        let name = name.into();
        let (hash, found) = self.lookup(NameKind::Task, &name);
        if found.is_some() {
            return Err(DagError::DuplicateTaskName(name));
        }
        if !runtime_s.is_finite() || runtime_s < 0.0 {
            return Err(DagError::InvalidRuntime {
                task: name,
                runtime: runtime_s,
            });
        }
        let (in_mark, out_mark) = self.next_marks();
        let mut ins = Vec::with_capacity(inputs.len());
        for &f in inputs {
            if self.stamp[f.index()] != in_mark {
                self.stamp[f.index()] = in_mark;
                ins.push(f);
            }
        }
        let mut outs = Vec::with_capacity(outputs.len());
        for &f in outputs {
            let mark = &mut self.stamp[f.index()];
            if *mark == in_mark {
                return Err(DagError::SelfLoop {
                    task: name,
                    file: self.files[f.index()].name.clone(),
                });
            }
            if *mark != out_mark {
                *mark = out_mark;
                outs.push(f);
            }
        }
        if let Some((f, first)) = outs
            .iter()
            .find_map(|&f| self.producer[f.index()].map(|first| (f, first)))
        {
            return Err(DagError::DuplicateProducer {
                file: self.files[f.index()].name.clone(),
                first: self.tasks[first.index()].name.clone(),
                second: name,
            });
        }
        let id = TaskId(self.tasks.len() as u32);
        for &f in &outs {
            self.producer[f.index()] = Some(id);
        }
        self.names.insert(hash, NameKind::Task, &name, id.0);
        self.tasks.push(Task {
            name,
            module: module.into(),
            runtime_s,
            inputs: ins,
            outputs: outs,
        });
        Ok(id)
    }

    /// Two fresh stamp values for one `add_task` pass: one marks the files
    /// already in its input list, the other those in its output list. The
    /// epoch advances on every call, failed ones included, so no stale
    /// stamp can match.
    fn next_marks(&mut self) -> (u32, u32) {
        if self.epoch > u32::MAX - 2 {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 2;
        (self.epoch - 1, self.epoch)
    }

    /// Adds an explicit control dependency: `child` cannot start before
    /// `parent` finishes, even with no file between them (Pegasus DAX
    /// `<child ref=..><parent ref=..>` edges). Self-edges are rejected at
    /// build time via cycle detection.
    ///
    /// # Panics
    /// Panics if either id has not been created by this builder.
    pub fn add_control_edge(&mut self, parent: TaskId, child: TaskId) {
        assert!(
            parent.index() < self.tasks.len() && child.index() < self.tasks.len(),
            "control edge references unknown task(s) {parent} -> {child}"
        );
        self.control_edges.push((parent, child));
    }

    /// Looks up a previously added task by name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.lookup(NameKind::Task, name).1.map(TaskId)
    }

    /// Validates the accumulated graph and freezes it into a [`Workflow`].
    pub fn build(self) -> Result<Workflow, DagError> {
        if self.tasks.is_empty() {
            return Err(DagError::Empty);
        }
        let n = self.tasks.len();
        let tasks = &self.tasks;
        let producer = &self.producer;
        // Inputs are deduplicated and tasks are visited in id order, so
        // every consumer row comes out sorted and distinct.
        let consumers = Csr::group(
            self.files.len(),
            tasks.iter().enumerate().flat_map(|(t, task)| {
                task.inputs
                    .iter()
                    .map(move |f| (f.index(), TaskId(t as u32)))
            }),
        );
        // Children: every file-derived and control edge `p -> t`, emitted
        // in child order, so each row is sorted with any duplicates
        // adjacent. Parents are then the transpose, sorted by the same
        // argument.
        let control = Csr::group(n, self.control_edges.iter().map(|&(p, c)| (c.index(), p)));
        let control = &control;
        let mut children = Csr::group(
            n,
            tasks.iter().enumerate().flat_map(|(t, task)| {
                task.inputs
                    .iter()
                    .filter_map(|f| producer[f.index()])
                    .chain(control.row(t).iter().copied())
                    .map(move |p| (p.index(), TaskId(t as u32)))
            }),
        );
        children.dedup_sorted_rows();
        let parents = Csr::group(
            n,
            children.pairs().map(|(p, c)| (c.index(), TaskId(p as u32))),
        );
        // Kahn's algorithm to reject cycles. (A cycle is impossible when
        // tasks can only consume files registered before them *if* callers
        // always produce before consuming, but the builder allows forward
        // file references, so check explicitly.)
        let mut indeg: Vec<u32> = parents.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let mut ready: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = 0usize;
        while let Some(i) = ready.pop() {
            seen += 1;
            for c in children.row(i) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    ready.push(c.index());
                }
            }
        }
        if seen != n {
            let on_cycle = indeg.iter().position(|&d| d > 0).expect("cycle exists");
            return Err(DagError::Cycle {
                task: self.tasks[on_cycle].name.clone(),
            });
        }
        Ok(Workflow::from_parts(
            self.name,
            self.tasks,
            self.files,
            self.producer,
            consumers,
            parents,
            children,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3;

    #[test]
    fn figure3_shape() {
        let wf = figure3();
        assert_eq!(wf.num_tasks(), 7);
        assert_eq!(wf.num_files(), 9);
        let fb = FileId(1);
        assert_eq!(wf.producer(fb), Some(TaskId(0)));
        assert_eq!(wf.consumers(fb), &[TaskId(1), TaskId(2)]);
        assert_eq!(wf.parents(TaskId(6)), &[TaskId(3), TaskId(4), TaskId(5)]);
        assert_eq!(wf.children(TaskId(0)), &[TaskId(1), TaskId(2)]);
    }

    #[test]
    fn external_and_staged_out() {
        let wf = figure3();
        let names = |ids: &[FileId]| -> Vec<String> {
            ids.iter().map(|f| wf.file(*f).name.clone()).collect()
        };
        assert_eq!(names(wf.external_inputs()), vec!["a"]);
        // g (unconsumed, from t6) and h (unconsumed, from t5).
        let mut out = names(wf.staged_out_files());
        out.sort();
        assert_eq!(out, vec!["g", "h"]);
    }

    #[test]
    fn deliverable_flag_adds_to_stage_out() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let m = b.file("mosaic", 10);
        let s = b.file("shrunk", 1);
        b.add_task("add", "mAdd", 1.0, &[a], &[m]).unwrap();
        b.add_task("shrink", "mShrink", 1.0, &[m], &[s]).unwrap();
        b.mark_deliverable(m);
        let wf = b.build().unwrap();
        let mut out = wf.staged_out_files().to_vec();
        out.sort();
        assert_eq!(out, vec![m, s]);
    }

    #[test]
    fn rejects_duplicate_producer() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        b.add_task("t0", "m", 1.0, &[a], &[x]).unwrap();
        let err = b.add_task("t1", "m", 1.0, &[a], &[x]).unwrap_err();
        assert!(matches!(err, DagError::DuplicateProducer { .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let err = b.add_task("t0", "m", 1.0, &[a], &[a]).unwrap_err();
        assert!(matches!(err, DagError::SelfLoop { .. }));
    }

    #[test]
    fn rejects_duplicate_task_name() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        b.add_task("t", "m", 1.0, &[a], &[x]).unwrap();
        let err = b.add_task("t", "m", 1.0, &[x], &[]).unwrap_err();
        assert_eq!(err, DagError::DuplicateTaskName("t".into()));
    }

    #[test]
    fn rejects_bad_runtime() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        assert!(matches!(
            b.add_task("t", "m", -1.0, &[a], &[]),
            Err(DagError::InvalidRuntime { .. })
        ));
        assert!(matches!(
            b.add_task("t", "m", f64::NAN, &[a], &[]),
            Err(DagError::InvalidRuntime { .. })
        ));
    }

    #[test]
    fn rejects_empty_workflow() {
        assert_eq!(
            WorkflowBuilder::new("w").build().unwrap_err(),
            DagError::Empty
        );
    }

    #[test]
    fn detects_cycles_with_forward_references() {
        // t0 consumes y (produced later by t1) and produces x; t1 consumes x.
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        b.add_task("t0", "m", 1.0, &[y], &[x]).unwrap();
        b.add_task("t1", "m", 1.0, &[x], &[y]).unwrap();
        assert!(matches!(b.build(), Err(DagError::Cycle { .. })));
    }

    #[test]
    fn file_registration_is_idempotent() {
        let mut b = WorkflowBuilder::new("w");
        let a1 = b.file("a", 42);
        let a2 = b.file("a", 42);
        assert_eq!(a1, a2);
        assert_eq!(b.find_file("a"), Some(a1));
        assert_eq!(b.find_file("zzz"), None);
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn file_size_conflict_panics() {
        let mut b = WorkflowBuilder::new("w");
        b.file("a", 42);
        b.file("a", 43);
    }

    #[test]
    fn duplicate_io_entries_are_deduped() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        let t = b.add_task("t", "m", 1.0, &[a, a, a], &[x, x]).unwrap();
        let wf = b.build().unwrap();
        assert_eq!(wf.task(t).inputs, vec![a]);
        assert_eq!(wf.task(t).outputs, vec![x]);
    }

    #[test]
    fn stamp_epoch_wraps_without_stale_marks() {
        let mut b = WorkflowBuilder::new("w");
        let f: Vec<FileId> = (0..4).map(|i| b.file(format!("f{i}"), 1)).collect();
        b.epoch = u32::MAX - 3;
        let mut tasks = Vec::new();
        for i in 0..4 {
            let out = b.file(format!("out{i}"), 1);
            let t = b
                .add_task(
                    format!("t{i}"),
                    "m",
                    1.0,
                    &[f[2], f[0], f[2], f[3], f[0]],
                    &[out, out],
                )
                .unwrap();
            tasks.push((t, out));
        }
        assert!(b.epoch < 8, "the epoch wrapped around: {}", b.epoch);
        let wf = b.build().unwrap();
        for (t, out) in tasks {
            assert_eq!(wf.task(t).inputs, vec![f[2], f[0], f[3]]);
            assert_eq!(wf.task(t).outputs, vec![out]);
        }
    }

    #[test]
    fn scale_file_sizes_scales_and_floors() {
        let mut wf = figure3();
        let before: u64 = wf.files().iter().map(|f| f.bytes).sum();
        wf.scale_file_sizes(2.5);
        let after: u64 = wf.files().iter().map(|f| f.bytes).sum();
        assert_eq!(after, (before as f64 * 2.5).round() as u64);
        // Tiny factors never produce zero-size files.
        wf.scale_file_sizes(1e-9);
        assert!(wf.files().iter().all(|f| f.bytes >= 1));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn scale_rejects_nonpositive() {
        figure3().scale_file_sizes(0.0);
    }

    #[test]
    fn control_edges_add_dependencies_without_files() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        let t0 = b.add_task("t0", "m", 1.0, &[a], &[x]).unwrap();
        let t1 = b.add_task("t1", "m", 1.0, &[], &[y]).unwrap();
        b.add_control_edge(t0, t1);
        let wf = b.build().unwrap();
        assert_eq!(wf.parents(t1), &[t0]);
        assert_eq!(wf.children(t0), &[t1]);
        assert_eq!(wf.levels(), vec![1, 2]);
    }

    #[test]
    fn control_edges_participate_in_cycle_detection() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        let t0 = b.add_task("t0", "m", 1.0, &[], &[x]).unwrap();
        let t1 = b.add_task("t1", "m", 1.0, &[x], &[y]).unwrap();
        b.add_control_edge(t1, t0); // closes a cycle with the file edge
        assert!(matches!(b.build(), Err(DagError::Cycle { .. })));
    }

    #[test]
    fn duplicate_control_and_file_edges_dedup() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        let t0 = b.add_task("t0", "m", 1.0, &[], &[x]).unwrap();
        let t1 = b.add_task("t1", "m", 1.0, &[x], &[y]).unwrap();
        b.add_control_edge(t0, t1); // redundant with the file edge
        let wf = b.build().unwrap();
        assert_eq!(wf.parents(t1), &[t0]); // still a single parent entry
    }

    #[test]
    fn find_task_by_name() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        let t = b.add_task("only", "m", 1.0, &[], &[x]).unwrap();
        assert_eq!(b.find_task("only"), Some(t));
        assert_eq!(b.find_task("missing"), None);
    }

    #[test]
    fn zero_input_source_tasks_allowed() {
        let mut b = WorkflowBuilder::new("w");
        let x = b.file("x", 1);
        b.add_task("gen", "m", 1.0, &[], &[x]).unwrap();
        let wf = b.build().unwrap();
        assert!(wf.parents(TaskId(0)).is_empty());
        assert!(wf.external_inputs().is_empty());
    }
}
