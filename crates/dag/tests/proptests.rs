//! Randomized-property tests over randomly generated layered DAGs.
//!
//! Each case builds a random layered workflow from a deterministic
//! xorshift64* stream (seeded by the case index), so failures reproduce.

use mcloud_dag::{from_dax, to_dax, FileId, TaskId, Workflow, WorkflowBuilder};

const CASES: u64 = 48;

/// A random layered workflow. Each task in layer `l > 0` consumes 1-3
/// outputs of earlier layers; every task produces one file; some files are
/// external inputs.
fn layered_workflow(seed: u64) -> Workflow {
    let mut rng = seed | 1; // xorshift state must be nonzero
    let mut next = move || {
        // xorshift64* - deterministic, dependency-free
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let n_layers = 1 + (next() as usize) % 4;
    let widths: Vec<usize> = (0..n_layers).map(|_| 1 + (next() as usize) % 5).collect();
    let mut b = WorkflowBuilder::new("prop");
    let mut produced: Vec<FileId> = Vec::new();
    let mut task_no = 0usize;
    for (layer, &width) in widths.iter().enumerate() {
        let mut new_files = Vec::new();
        for w in 0..width {
            let out = b.file(format!("out_{layer}_{w}"), 1 + next() % 10_000);
            let inputs: Vec<FileId> = if produced.is_empty() {
                let ext = b.file(format!("ext_{layer}_{w}"), 1 + next() % 10_000);
                vec![ext]
            } else {
                let k = 1 + (next() as usize) % 3.min(produced.len());
                (0..k)
                    .map(|_| produced[(next() as usize) % produced.len()])
                    .collect()
            };
            let runtime = 1.0 + (next() % 1000) as f64 / 10.0;
            b.add_task(format!("t{task_no}"), "m", runtime, &inputs, &[out])
                .unwrap();
            task_no += 1;
            new_files.push(out);
        }
        produced.extend(new_files);
    }
    b.build().unwrap()
}

/// Topological order contains every task once and respects all edges.
#[test]
fn topo_order_is_a_valid_permutation() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0001 ^ case);
        let order = wf.topo_order();
        assert_eq!(order.len(), wf.num_tasks(), "case {case}");
        let mut pos = vec![usize::MAX; wf.num_tasks()];
        for (i, t) in order.iter().enumerate() {
            assert_eq!(pos[t.index()], usize::MAX, "case {case}: task repeated");
            pos[t.index()] = i;
        }
        for t in wf.task_ids() {
            for p in wf.parents(t) {
                assert!(
                    pos[p.index()] < pos[t.index()],
                    "case {case}: edge violated"
                );
            }
        }
    }
}

/// The paper's level definition holds everywhere: level 1 iff no parents,
/// otherwise 1 + max parent level.
#[test]
fn levels_satisfy_recurrence() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0002 ^ case);
        let levels = wf.levels();
        for t in wf.task_ids() {
            let parents = wf.parents(t);
            if parents.is_empty() {
                assert_eq!(levels[t.index()], 1, "case {case}");
            } else {
                let max_parent = parents.iter().map(|p| levels[p.index()]).max().unwrap();
                assert_eq!(levels[t.index()], max_parent + 1, "case {case}");
            }
        }
    }
}

/// Critical path bounds: at least the longest single task, at most the
/// total runtime; and parallelism is within [1, tasks].
#[test]
fn path_and_parallelism_bounds() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0003 ^ case);
        let cp = wf.critical_path_s();
        let longest = wf.tasks().map(|t| t.runtime_s).fold(0.0, f64::max);
        assert!(cp >= longest - 1e-9, "case {case}");
        assert!(cp <= wf.total_runtime_s() + 1e-9, "case {case}");
        let mp = wf.max_parallelism();
        assert!(mp >= 1 && mp <= wf.num_tasks(), "case {case}");
        // A chain has depth == tasks; in general depth <= tasks.
        assert!(wf.depth() as usize <= wf.num_tasks(), "case {case}");
    }
}

/// Parent/child relations are mutually consistent and deduplicated.
#[test]
fn adjacency_is_symmetric() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0004 ^ case);
        for t in wf.task_ids() {
            for p in wf.parents(t) {
                assert!(wf.children(*p).contains(&t), "case {case}");
            }
            for c in wf.children(t) {
                assert!(wf.parents(*c).contains(&t), "case {case}");
            }
            let mut ps = wf.parents(t).to_vec();
            ps.dedup();
            assert_eq!(ps.len(), wf.parents(t).len(), "case {case}: duplicate edge");
        }
    }
}

/// DAX serialization round-trips every analysis-relevant quantity.
#[test]
fn dax_roundtrip_is_lossless() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0005 ^ case);
        let back = from_dax(&to_dax(&wf)).unwrap();
        assert_eq!(back.num_tasks(), wf.num_tasks(), "case {case}");
        assert_eq!(back.num_files(), wf.num_files(), "case {case}");
        assert_eq!(back.total_bytes(), wf.total_bytes(), "case {case}");
        assert_eq!(back.levels(), wf.levels(), "case {case}");
        assert!(
            (back.total_runtime_s() - wf.total_runtime_s()).abs() < 1e-6,
            "case {case}"
        );
        // File ids are assigned in registration order, which differs between
        // the builder and the DAX reader; compare by name.
        let names = |w: &Workflow, ids: &[FileId]| -> Vec<String> {
            let mut v: Vec<String> = ids.iter().map(|f| w.file(*f).name.to_owned()).collect();
            v.sort();
            v
        };
        assert_eq!(
            names(&back, back.external_inputs()),
            names(&wf, wf.external_inputs()),
            "case {case}"
        );
        assert_eq!(
            names(&back, back.staged_out_files()),
            names(&wf, wf.staged_out_files()),
            "case {case}"
        );
    }
}

/// CCR is linear in a file-size scale factor.
#[test]
fn ccr_is_linear_in_scale() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0006 ^ case);
        let factor = 0.1 + 9.9 * (case as f64 / CASES as f64);
        let base = wf.ccr(1_250_000.0);
        let mut scaled = wf.clone();
        scaled.scale_file_sizes(factor);
        let got = scaled.ccr(1_250_000.0);
        // Rounding to whole bytes perturbs tiny files; allow 1% slack.
        assert!(
            (got - base * factor).abs() <= 0.01 * base * factor + 1e-9,
            "case {case}: {got} vs {}",
            base * factor
        );
    }
}

/// The CSR adjacency and the construction-time file-set caches agree with
/// a from-scratch recomputation that scans task inputs/outputs, i.e. the
/// flattened layout is exactly the old `Vec<Vec<_>>` scan semantics.
#[test]
fn csr_and_cached_sets_match_scan_recomputation() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0008 ^ case);
        let file_ids = || (0..wf.num_files() as u32).map(FileId);

        // Consumers of a file: every task listing it among its inputs, in
        // task order (inputs are deduplicated by the builder).
        for f in file_ids() {
            let scan: Vec<TaskId> = wf
                .task_ids()
                .filter(|&t| wf.task(t).inputs.contains(&f))
                .collect();
            assert_eq!(wf.consumers(f), &scan[..], "case {case}: consumers");
        }

        // Parents/children: set-compare against the producer map; ordering
        // within a row is checked structurally by `adjacency_is_symmetric`.
        for t in wf.task_ids() {
            let mut parents: Vec<TaskId> = wf
                .task(t)
                .inputs
                .iter()
                .filter_map(|&f| wf.producer(f))
                .collect();
            parents.sort();
            parents.dedup();
            let mut got = wf.parents(t).to_vec();
            got.sort();
            assert_eq!(got, parents, "case {case}: parents");

            let mut children: Vec<TaskId> = wf
                .task(t)
                .outputs
                .iter()
                .flat_map(|&f| wf.consumers(f).iter().copied())
                .collect();
            children.sort();
            children.dedup();
            let mut got = wf.children(t).to_vec();
            got.sort();
            assert_eq!(got, children, "case {case}: children");
        }

        // External inputs: files nothing produces, in file order.
        let ext: Vec<FileId> = file_ids().filter(|&f| wf.producer(f).is_none()).collect();
        assert_eq!(wf.external_inputs(), &ext[..], "case {case}: external");

        // Staged-out: produced files that are deliverable or dead-end.
        let staged: Vec<FileId> = file_ids()
            .filter(|&f| {
                wf.producer(f).is_some() && (wf.file(f).deliverable || wf.consumers(f).is_empty())
            })
            .collect();
        assert_eq!(wf.staged_out_files(), &staged[..], "case {case}: staged");
    }
}

/// Level widths sum to the task count.
#[test]
fn level_widths_partition_tasks() {
    for case in 0..CASES {
        let wf = layered_workflow(0xDA6_0007 ^ case);
        let widths = wf.level_widths();
        assert_eq!(widths.iter().sum::<usize>(), wf.num_tasks(), "case {case}");
        assert!(widths.iter().all(|&w| w > 0), "case {case}");
    }
}
