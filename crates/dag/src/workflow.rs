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
use std::fmt::{self, Write as _};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::error::DagError;
use crate::ids::{FileId, TaskId};

/// One data product of a workflow, borrowed from the workflow's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRef<'a> {
    /// Unique logical file name (e.g. `proj_2_3.fits`).
    pub name: &'a str,
    /// Size in bytes.
    pub bytes: u64,
    /// Marked for stage-out to the user even if some task consumes it
    /// (e.g. the final mosaic, which `mShrink` also reads).
    pub deliverable: bool,
}

/// One invocation of an application routine, borrowed from the
/// workflow's columns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRef<'a> {
    /// Unique task name (e.g. `mProject_12`).
    pub name: &'a str,
    /// The routine this task invokes (e.g. `mProject`); the paper calls all
    /// same-level Montage tasks invocations of the same routine.
    pub module: &'a str,
    /// Runtime on the reference CPU, in seconds.
    pub runtime_s: f64,
    /// Files read (deduplicated, in registration order).
    pub inputs: &'a [FileId],
    /// Files written (deduplicated, in registration order).
    pub outputs: &'a [FileId],
}

/// Strings stored end to end in one buffer: string `i` is
/// `text[ends[i - 1]..ends[i]]`. Two allocations hold any number of names.
///
/// A name is first *staged* after the last stored one, where it can be
/// hashed and compared in place, and then either committed or discarded.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn stored_len(&self) -> usize {
        self.ends.last().map_or(0, |&end| end as usize)
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Writes `name` after the stored names, replacing any staged one.
    fn stage(&mut self, name: impl fmt::Display) {
        self.discard();
        write!(self.text, "{name}").expect("writing to a String cannot fail");
    }

    fn staged(&self) -> &str {
        &self.text[self.stored_len()..]
    }

    fn commit(&mut self) {
        let end = u32::try_from(self.text.len()).expect("names exceed the u32 offset range");
        self.ends.push(end);
    }

    fn discard(&mut self) {
        self.text.truncate(self.stored_len());
    }
}

/// Adjacency lists flattened into compressed-sparse-row form: the list for
/// row `i` lives at `ids[offsets[i]..offsets[i + 1]]`. One offsets array
/// plus one flat ids array replaces a `Vec<Vec<_>>`, so looking up a row is
/// two loads with no pointer chase per row and the whole structure is two
/// allocations regardless of row count.
///
/// Rows can also be appended one at a time: ids pushed after the last
/// offset form a staged row until [`Csr::commit_row`] or
/// [`Csr::discard_row`].
#[derive(Debug, Clone)]
struct Csr<T = TaskId> {
    offsets: Vec<u32>,
    ids: Vec<T>,
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Csr {
            offsets: vec![0],
            ids: Vec::new(),
        }
    }
}

impl<T: Copy> Csr<T> {
    fn row(&self, i: usize) -> &[T] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every `(row, id)` pair, rows in order.
    fn pairs(&self) -> impl Iterator<Item = (usize, T)> + Clone + '_ {
        self.offsets.windows(2).enumerate().flat_map(move |(r, w)| {
            self.ids[w[0] as usize..w[1] as usize]
                .iter()
                .map(move |&id| (r, id))
        })
    }

    fn staged(&self) -> &[T] {
        &self.ids[self.stored_len()..]
    }

    fn stored_len(&self) -> usize {
        self.offsets[self.offsets.len() - 1] as usize
    }

    fn commit_row(&mut self) {
        let end = u32::try_from(self.ids.len()).expect("adjacency exceeds the u32 offset range");
        self.offsets.push(end);
    }

    fn discard_row(&mut self) {
        self.ids.truncate(self.stored_len());
    }
}

impl Csr<TaskId> {
    /// Groups `(row, id)` pairs into `rows` rows with a stable counting
    /// sort: each row lists its ids in iteration order. The pairs are
    /// walked twice, once to count and once to fill, with `for_each`,
    /// which runs nested iterators as plain loops.
    fn group(rows: usize, pairs: impl Iterator<Item = (usize, TaskId)> + Clone) -> Self {
        let mut offsets = vec![0u32; rows + 1];
        pairs.clone().for_each(|(r, _)| offsets[r + 1] += 1);
        for r in 0..rows {
            offsets[r + 1] = offsets[r]
                .checked_add(offsets[r + 1])
                .expect("adjacency exceeds the u32 offset range");
        }
        let mut next = offsets[..rows].to_vec();
        let mut ids = vec![TaskId(0); offsets[rows] as usize];
        pairs.for_each(|(r, id)| {
            ids[next[r] as usize] = id;
            next[r] += 1;
        });
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
}

/// What a workflow stores per task and per file, one column per field.
/// Shared by [`WorkflowBuilder`], which appends to it, and [`Workflow`],
/// which hands out [`TaskRef`] and [`FileRef`] views of it.
#[derive(Debug, Clone, Default)]
struct Columns {
    file_names: Names,
    file_bytes: Vec<u64>,
    deliverable: Vec<bool>,
    task_names: Names,
    /// Each distinct module once, in order of first use.
    modules: Names,
    /// Per task, an index into `modules`.
    task_module: Vec<u32>,
    runtime_s: Vec<f64>,
    inputs: Csr<FileId>,
    outputs: Csr<FileId>,
}

impl Columns {
    fn num_tasks(&self) -> usize {
        self.runtime_s.len()
    }

    fn num_files(&self) -> usize {
        self.file_bytes.len()
    }

    fn task(&self, i: usize) -> TaskRef<'_> {
        TaskRef {
            name: self.task_names.get(i),
            module: self.modules.get(self.task_module[i] as usize),
            runtime_s: self.runtime_s[i],
            inputs: self.inputs.row(i),
            outputs: self.outputs.row(i),
        }
    }

    fn file(&self, i: usize) -> FileRef<'_> {
        FileRef {
            name: self.file_names.get(i),
            bytes: self.file_bytes[i],
            deliverable: self.deliverable[i],
        }
    }
}

/// An immutable, validated workflow DAG.
///
/// Construct via [`WorkflowBuilder`]; validation guarantees the graph is
/// non-empty, acyclic, and that every file has at most one producer.
///
/// Tasks and files are stored as columns in a handful of flat allocations
/// (names in two string arenas, modules interned, file lists in CSR form)
/// and read through [`TaskRef`] and [`FileRef`] views. All adjacency (file
/// consumers, task parents/children) is stored in CSR form too, and every
/// derived file set (external inputs, staged-out files) is computed once
/// at construction, so the accessors used by the simulation engine's event
/// loop are allocation-free slice borrows.
#[derive(Debug, Clone)]
pub struct Workflow {
    name: String,
    cols: Columns,
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
        self.cols.num_tasks()
    }

    /// Number of distinct files.
    pub fn num_files(&self) -> usize {
        self.cols.num_files()
    }

    /// All tasks in [`TaskId`] order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskRef<'_>> + Clone + '_ {
        (0..self.num_tasks()).map(|i| self.cols.task(i))
    }

    /// All files in [`FileId`] order.
    pub fn files(&self) -> impl ExactSizeIterator<Item = FileRef<'_>> + Clone + '_ {
        (0..self.num_files()).map(|i| self.cols.file(i))
    }

    /// A single task.
    pub fn task(&self, id: TaskId) -> TaskRef<'_> {
        self.cols.task(id.index())
    }

    /// A single file.
    pub fn file(&self, id: FileId) -> FileRef<'_> {
        self.cols.file(id.index())
    }

    /// The distinct modules of the workflow's tasks, in order of first use.
    pub fn modules(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.cols.modules.len()).map(|m| self.cols.modules.get(m))
    }

    /// A task's runtime on the reference CPU, in seconds; the same as
    /// `task(id).runtime_s` without building the whole view.
    pub fn runtime_s(&self, task: TaskId) -> f64 {
        self.cols.runtime_s[task.index()]
    }

    /// The files a task reads; the same as `task(id).inputs`.
    pub fn inputs(&self, task: TaskId) -> &[FileId] {
        self.cols.inputs.row(task.index())
    }

    /// The files a task writes; the same as `task(id).outputs`.
    pub fn outputs(&self, task: TaskId) -> &[FileId] {
        self.cols.outputs.row(task.index())
    }

    /// A file's size in bytes; the same as `file(id).bytes`.
    pub fn bytes(&self, file: FileId) -> u64 {
        self.cols.file_bytes[file.index()]
    }

    /// Iterator over all task ids in index order.
    pub fn task_ids(&self) -> impl ExactSizeIterator<Item = TaskId> {
        (0..self.num_tasks() as u32).map(TaskId)
    }

    /// Iterator over all file ids in index order.
    pub fn file_ids(&self) -> impl ExactSizeIterator<Item = FileId> {
        (0..self.num_files() as u32).map(FileId)
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
        for bytes in &mut self.cols.file_bytes {
            if *bytes > 0 {
                *bytes = ((*bytes as f64 * factor).round() as u64).max(1);
            }
        }
    }

    /// Per-task module index into [`Workflow::modules`].
    pub(crate) fn module_index(&self, task: TaskId) -> usize {
        self.cols.task_module[task.index()] as usize
    }

    fn from_parts(
        name: String,
        cols: Columns,
        producer: Vec<Option<TaskId>>,
        consumers: Csr,
        parents: Csr,
        children: Csr,
    ) -> Self {
        let files = cols.num_files() as u32;
        let external_inputs: Vec<FileId> = (0..files)
            .map(FileId)
            .filter(|f| producer[f.index()].is_none())
            .collect();
        let staged_out: Vec<FileId> = (0..files)
            .map(FileId)
            .filter(|f| {
                producer[f.index()].is_some()
                    && (cols.deliverable[f.index()] || consumers.row(f.index()).is_empty())
            })
            .collect();
        Workflow {
            name,
            cols,
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
    Module = 2,
}

/// Name lookup for files, tasks and modules that does not store the names
/// twice.
///
/// The index keys each entry by a 64-bit hash of its kind and name and
/// confirms a hit against the name the builder already stores in its
/// arenas. A name whose hash slot is taken by a different name goes to a
/// per-kind overflow map, which owns a copy of it; with a good hasher that
/// map stays empty.
#[derive(Debug, Default)]
struct NameIndex<S> {
    hasher: S,
    slots: HashMap<u64, (NameKind, u32), BuildHasherDefault<PreHashed>>,
    overflow: [HashMap<String, u32>; 3],
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
/// and `build` assembles the adjacency with counting passes. Names are
/// written straight into the workflow's name arenas, so registering a file
/// or a task allocates nothing per call. `S` hashes names for the file,
/// task and module lookups; see [`WorkflowBuilder::with_hasher`].
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
/// b.add_task(format_args!("t{}", 2), "use", 5.0, &[fb], &[fd]).unwrap();
/// let wf = b.build().unwrap();
/// assert_eq!(wf.num_tasks(), 3);
/// assert_eq!(wf.consumers(fb).len(), 2);
/// assert_eq!(wf.task(mcloud_dag::TaskId(2)).name, "t2");
/// ```
#[derive(Debug)]
pub struct WorkflowBuilder<S = RandomState> {
    name: String,
    cols: Columns,
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
            cols: Columns::default(),
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
    /// The name is formatted straight into the workflow's name arena, so
    /// `format_args!` names cost no allocation.
    ///
    /// # Panics
    /// Panics if the name was already registered with a *different* size —
    /// that is always a bug in the calling generator.
    pub fn file(&mut self, name: impl fmt::Display, bytes: u64) -> FileId {
        self.cols.file_names.stage(name);
        let (hash, found) = self.lookup(NameKind::File, self.cols.file_names.staged());
        if let Some(id) = found {
            assert_eq!(
                self.cols.file_bytes[id as usize],
                bytes,
                "file '{}' re-registered with a different size",
                self.cols.file_names.staged()
            );
            self.cols.file_names.discard();
            return FileId(id);
        }
        let id = FileId(self.cols.num_files() as u32);
        self.names
            .insert(hash, NameKind::File, self.cols.file_names.staged(), id.0);
        self.cols.file_names.commit();
        self.cols.file_bytes.push(bytes);
        self.cols.deliverable.push(false);
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
        let stored = match kind {
            NameKind::File => &self.cols.file_names,
            NameKind::Task => &self.cols.task_names,
            NameKind::Module => &self.cols.modules,
        };
        let id = self
            .names
            .get(hash, kind, name, |id| stored.get(id as usize));
        (hash, id)
    }

    /// Marks a file for stage-out to the user even if tasks consume it.
    pub fn mark_deliverable(&mut self, file: FileId) {
        self.cols.deliverable[file.index()] = true;
    }

    /// Adds a task. Input/output file lists are deduplicated preserving
    /// order. Fails on duplicate task names, invalid runtimes, a file that
    /// is both input and output, or a second producer for a file; a failed
    /// call leaves the builder unchanged. Like [`WorkflowBuilder::file`],
    /// the name is formatted straight into the name arena.
    pub fn add_task(
        &mut self,
        name: impl fmt::Display,
        module: &str,
        runtime_s: f64,
        inputs: &[FileId],
        outputs: &[FileId],
    ) -> Result<TaskId, DagError> {
        self.cols.task_names.stage(name);
        let hash = match self.stage_task(runtime_s, inputs, outputs) {
            Ok(hash) => hash,
            Err(e) => {
                self.cols.task_names.discard();
                self.cols.inputs.discard_row();
                self.cols.outputs.discard_row();
                return Err(e);
            }
        };
        let id = TaskId(self.cols.num_tasks() as u32);
        for &f in self.cols.outputs.staged() {
            self.producer[f.index()] = Some(id);
        }
        self.names
            .insert(hash, NameKind::Task, self.cols.task_names.staged(), id.0);
        self.cols.task_names.commit();
        self.cols.inputs.commit_row();
        self.cols.outputs.commit_row();
        let module = self.intern_module(module);
        self.cols.task_module.push(module);
        self.cols.runtime_s.push(runtime_s);
        Ok(id)
    }

    /// Checks the task whose name is staged and stages its deduplicated
    /// input and output rows; returns the hash of its name. Claims
    /// nothing: on `Err` the caller discards the staged name and rows.
    fn stage_task(
        &mut self,
        runtime_s: f64,
        inputs: &[FileId],
        outputs: &[FileId],
    ) -> Result<u64, DagError> {
        let (hash, found) = self.lookup(NameKind::Task, self.cols.task_names.staged());
        let name = |cols: &Columns| cols.task_names.staged().to_owned();
        if found.is_some() {
            return Err(DagError::DuplicateTaskName(name(&self.cols)));
        }
        if !runtime_s.is_finite() || runtime_s < 0.0 {
            return Err(DagError::InvalidRuntime {
                task: name(&self.cols),
                runtime: runtime_s,
            });
        }
        let (in_mark, out_mark) = self.next_marks();
        for &f in inputs {
            if self.stamp[f.index()] != in_mark {
                self.stamp[f.index()] = in_mark;
                self.cols.inputs.ids.push(f);
            }
        }
        for &f in outputs {
            let mark = &mut self.stamp[f.index()];
            if *mark == in_mark {
                return Err(DagError::SelfLoop {
                    task: name(&self.cols),
                    file: self.cols.file_names.get(f.index()).to_owned(),
                });
            }
            if *mark != out_mark {
                *mark = out_mark;
                self.cols.outputs.ids.push(f);
            }
        }
        if let Some((f, first)) = self
            .cols
            .outputs
            .staged()
            .iter()
            .find_map(|&f| self.producer[f.index()].map(|first| (f, first)))
        {
            return Err(DagError::DuplicateProducer {
                file: self.cols.file_names.get(f.index()).to_owned(),
                first: self.cols.task_names.get(first.index()).to_owned(),
                second: name(&self.cols),
            });
        }
        Ok(hash)
    }

    /// The index of `module` among the distinct modules, adding it if new.
    fn intern_module(&mut self, module: &str) -> u32 {
        // Generators add the tasks of one module together.
        if let Some(&last) = self.cols.task_module.last() {
            if self.cols.modules.get(last as usize) == module {
                return last;
            }
        }
        let (hash, found) = self.lookup(NameKind::Module, module);
        found.unwrap_or_else(|| {
            let id = self.cols.modules.len() as u32;
            self.names.insert(hash, NameKind::Module, module, id);
            self.cols.modules.stage(module);
            self.cols.modules.commit();
            id
        })
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
        let n = self.cols.num_tasks();
        assert!(
            parent.index() < n && child.index() < n,
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
        // The name index and the stamps are done with; free them before
        // the adjacency is built, which lowers the peak heap.
        let WorkflowBuilder {
            name,
            cols,
            names,
            producer,
            stamp,
            control_edges,
            ..
        } = self;
        drop((names, stamp));
        let n = cols.num_tasks();
        if n == 0 {
            return Err(DagError::Empty);
        }
        let inputs = &cols.inputs;
        let producer_of = &producer;
        // Inputs are deduplicated and tasks are visited in id order, so
        // every consumer row comes out sorted and distinct.
        let consumers = Csr::group(
            cols.num_files(),
            inputs.pairs().map(|(t, f)| (f.index(), TaskId(t as u32))),
        );
        // Children: every file-derived and control edge `p -> t`, emitted
        // in child order, so each row is sorted with any duplicates
        // adjacent. Parents are then the transpose, sorted by the same
        // argument.
        let control = Csr::group(n, control_edges.iter().map(|&(p, c)| (c.index(), p)));
        let control = &control;
        let mut children = Csr::group(
            n,
            (0..n).flat_map(|t| {
                inputs
                    .row(t)
                    .iter()
                    .filter_map(|f| producer_of[f.index()])
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
                task: cols.task_names.get(on_cycle).to_owned(),
            });
        }
        Ok(Workflow::from_parts(
            name, cols, producer, consumers, parents, children,
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
            ids.iter().map(|f| wf.file(*f).name.to_owned()).collect()
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
    fn failed_calls_truncate_the_arenas_and_io_tables() {
        let mut b = WorkflowBuilder::new("w");
        let a = b.file("a", 1);
        let x = b.file("x", 1);
        let y = b.file("y", 1);
        b.add_task("t", "m", 1.0, &[a], &[x]).unwrap();
        let sizes = |b: &WorkflowBuilder| {
            (
                b.cols.file_names.text.len(),
                b.cols.task_names.text.len(),
                b.cols.modules.text.len(),
                b.cols.inputs.ids.len(),
                b.cols.outputs.ids.len(),
            )
        };
        let before = sizes(&b);
        // Each fails after staging its name and some of its io rows.
        b.add_task("self-loop", "other", 1.0, &[a, y], &[x, a])
            .unwrap_err();
        b.add_task("second-producer", "other", 1.0, &[a], &[y, x])
            .unwrap_err();
        assert_eq!(b.file("a", 1), a);
        assert_eq!(sizes(&b), before);
    }

    #[test]
    fn names_are_formatted_into_the_arenas() {
        let mut b = WorkflowBuilder::new("w");
        let i = 7;
        let a = b.file(format_args!("proj_{i:04}.fits"), 1);
        let x = b.file(String::from("x"), 1);
        let t = b
            .add_task(format_args!("mProject_{i:04}"), "mProject", 1.0, &[a], &[x])
            .unwrap();
        assert_eq!(b.find_file("proj_0007.fits"), Some(a));
        assert_eq!(b.find_task("mProject_0007"), Some(t));
        let wf = b.build().unwrap();
        assert_eq!(wf.file(a).name, "proj_0007.fits");
        assert_eq!(wf.file(x).name, "x");
        assert_eq!(wf.task(t).name, "mProject_0007");
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
        let before: u64 = wf.files().map(|f| f.bytes).sum();
        wf.scale_file_sizes(2.5);
        let after: u64 = wf.files().map(|f| f.bytes).sum();
        assert_eq!(after, (before as f64 * 2.5).round() as u64);
        // Tiny factors never produce zero-size files.
        wf.scale_file_sizes(1e-9);
        assert!(wf.files().all(|f| f.bytes >= 1));
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
