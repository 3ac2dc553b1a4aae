//! Per-layer metrics, derived only from the span file of the traced
//! replay (plus the e2e latencies for the serve residual).

use std::collections::HashMap;

use crate::trace::{Index, Rec};
use crate::{percentile, Metric};

pub fn derive(recs: &[Rec], latency_ns: &HashMap<u32, u64>, overhead_share: f64) -> Vec<Metric> {
    let ix = Index::new(recs);
    let durs =
        |name: &'static str| -> Vec<f64> { ix.named(name).map(|r| r.dur_ns as f64).collect() };
    let selfs =
        |name: &'static str| -> Vec<f64> { ix.named(name).map(|r| ix.self_ns(r) as f64).collect() };
    let sum_attr = |names: &[&'static str], key: &str| -> f64 {
        names
            .iter()
            .flat_map(|&n| ix.named(n))
            .map(|r| r.attr(key))
            .sum()
    };
    let max_attr = |names: &[&'static str], key: &str| -> f64 {
        names
            .iter()
            .flat_map(|&n| ix.named(n))
            .map(|r| r.attr(key))
            .fold(0.0, f64::max)
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let mut out = Vec::new();

    // montage (with the dag crate): generation inside serve queries vs the
    // queries' whole replayed time.
    let generate = durs("montage.generate");
    let tasks = sum_attr(&["montage.generate"], "tasks");
    let queries: Vec<&Rec> = ix.named("serve.query").collect();
    let gen_by_query: HashMap<u32, f64> =
        ix.named("montage.generate")
            .fold(HashMap::new(), |mut acc, r| {
                *acc.entry(r.query).or_default() += r.dur_ns as f64;
                acc
            });
    let share_of = |qs: &[&Rec]| {
        let gen: f64 = qs
            .iter()
            .map(|q| gen_by_query.get(&q.query).copied().unwrap_or(0.0))
            .sum();
        ratio(gen, qs.iter().map(|q| q.dur_ns as f64).sum())
    };
    let q16: Vec<&Rec> = queries
        .iter()
        .copied()
        .filter(|q| q.attr("deg") == 16.0)
        .collect();
    out.extend([
        m(
            "montage.generate.calls",
            generate.len() as f64,
            "count",
            generate.len(),
        ),
        m(
            "montage.generate.busy_ms",
            sum(&generate) / 1e6,
            "ms",
            generate.len(),
        ),
        m(
            "montage.generate.p50_ms",
            percentile(&generate, 0.5) / 1e6,
            "ms",
            generate.len(),
        ),
        m(
            "montage.generate.ns_per_task",
            ratio(sum(&generate), tasks),
            "ns",
            generate.len(),
        ),
        m("montage.tasks_generated", tasks, "count", generate.len()),
        m(
            "montage.generate.share",
            share_of(&queries),
            "ratio",
            queries.len(),
        ),
        m(
            "montage.generate.share_16deg",
            share_of(&q16),
            "ratio",
            q16.len(),
        ),
    ]);

    // core
    let digest = durs("core.digest");
    let simulate = durs("core.simulate");
    let batch = durs("core.batch");
    let render = durs("core.report_json");
    let events = sum_attr(&["core.simulate", "core.batch"], "events");
    out.extend([
        m(
            "core.digest.p50_us",
            percentile(&digest, 0.5) / 1e3,
            "us",
            digest.len(),
        ),
        m(
            "core.simulate.calls",
            simulate.len() as f64,
            "count",
            simulate.len(),
        ),
        m(
            "core.simulate.busy_ms",
            sum(&simulate) / 1e6,
            "ms",
            simulate.len(),
        ),
        m(
            "core.simulate.p50_ms",
            percentile(&simulate, 0.5) / 1e6,
            "ms",
            simulate.len(),
        ),
        m("core.events", events, "count", simulate.len() + batch.len()),
        m(
            "core.events_per_s",
            ratio(events, (sum(&simulate) + sum(&batch)) / 1e9),
            "1/s",
            simulate.len() + batch.len(),
        ),
        m(
            "core.batch.sims",
            sum_attr(&["core.batch"], "sims"),
            "count",
            batch.len(),
        ),
        m("core.batch.busy_ms", sum(&batch) / 1e6, "ms", batch.len()),
        m(
            "core.report_json.p50_us",
            percentile(&render, 0.5) / 1e3,
            "us",
            render.len(),
        ),
    ]);

    // simkit, through the kernel stats every Report carries
    let kernel = ["core.simulate", "core.batch", "sweep.incremental"];
    let runs = simulate.len() + batch.len() + ix.named("sweep.incremental").count();
    out.extend([
        m(
            "simkit.queue_pops",
            sum_attr(&kernel, "pops"),
            "count",
            runs,
        ),
        m(
            "simkit.queue_peak_pending",
            max_attr(&kernel, "peak_pending"),
            "count",
            runs,
        ),
        m(
            "simkit.pool_grants",
            sum_attr(&kernel, "grants"),
            "count",
            runs,
        ),
    ]);

    // cache: tier 1 = memory hit, 2 = disk hit, 0 = miss
    let gets: Vec<&Rec> = ix
        .recs
        .iter()
        .filter(|r| r.name == "cache.get" || r.name == "cache.get_or_compute")
        .collect();
    let tier = |t: f64| gets.iter().filter(|r| r.attr("tier") == t).count() as f64;
    let computes = ix
        .named("cache.get_or_compute")
        .filter(|r| r.attr("tier") == 0.0)
        .count() as f64;
    let get_self: Vec<f64> = gets.iter().map(|r| ix.self_ns(r) as f64).collect();
    let disk_self: Vec<f64> = gets
        .iter()
        .filter(|r| r.attr("tier") == 2.0)
        .map(|r| ix.self_ns(r) as f64)
        .collect();
    let insert = durs("cache.insert");
    let encode = durs("cache.encode");
    let decode = durs("cache.decode");
    out.extend([
        m("cache.get.calls", gets.len() as f64, "count", gets.len()),
        m("cache.hits_mem", tier(1.0), "count", gets.len()),
        m("cache.hits_disk", tier(2.0), "count", gets.len()),
        m("cache.misses", tier(0.0), "count", gets.len()),
        m("cache.computes", computes, "count", gets.len()),
        m(
            "cache.hit_ratio",
            ratio(tier(1.0) + tier(2.0), gets.len() as f64),
            "ratio",
            gets.len(),
        ),
        m(
            "cache.get.p50_us",
            percentile(&get_self, 0.5) / 1e3,
            "us",
            get_self.len(),
        ),
        m(
            "cache.insert.p50_us",
            percentile(&insert, 0.5) / 1e3,
            "us",
            insert.len(),
        ),
        m(
            "cache.disk_hit.p50_us",
            percentile(&disk_self, 0.5) / 1e3,
            "us",
            disk_self.len(),
        ),
        m(
            "cache.encode.p50_us",
            percentile(&encode, 0.5) / 1e3,
            "us",
            encode.len(),
        ),
        m(
            "cache.decode.p50_us",
            percentile(&decode, 0.5) / 1e3,
            "us",
            decode.len(),
        ),
        m(
            "cache.bytes_stored",
            sum_attr(&["cache.encode"], "bytes"),
            "B",
            encode.len(),
        ),
    ]);

    // service
    let arrivals = durs("service.arrivals");
    let service_self = selfs("service.simulate");
    let profile = durs("service.profile");
    let plan = durs("service.plan");
    out.extend([
        m(
            "service.arrivals.count",
            sum_attr(&["service.arrivals"], "n"),
            "count",
            arrivals.len(),
        ),
        m(
            "service.arrivals.busy_ms",
            sum(&arrivals) / 1e6,
            "ms",
            arrivals.len(),
        ),
        m(
            "service.simulate.self_ms",
            sum(&service_self) / 1e6,
            "ms",
            service_self.len(),
        ),
        m(
            "service.admitted",
            sum_attr(&["service.simulate"], "admitted"),
            "count",
            service_self.len(),
        ),
        m(
            "service.rejected",
            sum_attr(&["service.simulate"], "rejected"),
            "count",
            service_self.len(),
        ),
        m(
            "service.profile.busy_ms",
            sum(&profile) / 1e6,
            "ms",
            profile.len(),
        ),
        m("service.plan.busy_ms", sum(&plan) / 1e6, "ms", plan.len()),
        m(
            "service.plan.candidates",
            max_attr(&["service.plan"], "candidates"),
            "count",
            plan.len(),
        ),
    ]);

    // sweep
    let sweep = durs("sweep.incremental");
    out.extend([
        m(
            "sweep.points",
            sum_attr(&["sweep.incremental"], "points"),
            "count",
            sweep.len(),
        ),
        m("sweep.busy_ms", sum(&sweep) / 1e6, "ms", sweep.len()),
        m(
            "sweep.resumed",
            sum_attr(&["sweep.incremental"], "resumed"),
            "count",
            sweep.len(),
        ),
        m(
            "sweep.event_reuse_ratio",
            ratio(
                sum_attr(&["sweep.incremental"], "reused_events"),
                sum_attr(&["sweep.incremental"], "total_events"),
            ),
            "ratio",
            sweep.len(),
        ),
    ]);

    // serve residual: e2e latency of a query minus the library spans
    // replaying it (framing, JSON parse, IPC, process scheduling).
    let mut residual = Vec::new();
    let (mut spans_ns, mut e2e_ns) = (0.0, 0.0);
    for q in &queries {
        if let Some(&e2e) = latency_ns.get(&q.query) {
            let library = ix.children_ns(q.id) as f64;
            residual.push(e2e as f64 - library);
            spans_ns += library;
            e2e_ns += e2e as f64;
        }
    }
    out.extend([
        m(
            "serve.overhead_p50_us",
            percentile(&residual, 0.5) / 1e3,
            "us",
            residual.len(),
        ),
        m(
            "serve.span_coverage",
            ratio(spans_ns, e2e_ns),
            "ratio",
            residual.len(),
        ),
        m("trace.overhead_share", overhead_share, "ratio", 1),
    ]);
    out
}
