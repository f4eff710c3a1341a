//! The benchmark's definitions: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! each should move. The tests render `BENCHMARK.json` and
//! `perfbench/spec.json` from these tables and pin the committed files to
//! them; on a mismatch they print the expected text. The run itself reads
//! only the names and units.
#![cfg_attr(not(test), allow(dead_code))]

#[cfg(test)]
use pc_bench::Json;

#[cfg(test)]
use crate::workloads::{ALL, PAGE};

/// Seconds one run measures: `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;
/// Hardware threads of the host the offered rates were picked on.
pub const RATES_PICKED_ON_THREADS: usize = 2;

pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[E2e] = &[
    E2e { name: "setup_s", unit: "s", better: "lower", bound: 0.25,
          what: "median of repeated set-ups: build every structure into its store and spawn the servers and router, until the first request can be sent; input generation excluded" },
    E2e { name: "pages_read_per_query", unit: "pages", better: "lower", bound: 0.1,
          what: "page reads, backend reads plus pool hits, per read over a pass of 2000 reads sent one at a time after the timed phases with no write in flight, from server-side IoStats deltas: the paper's transfer count on the read path" },
    E2e { name: "space_amp", unit: "ratio", better: "lower", bound: 0.1,
          what: "live pages times page size at the end of the run over live records times record size" },
];

/// End-to-end metrics printed by name and unit, but not in the JSON line.
/// On a shared host the timings do not repeat within a bound of 0.25:
/// wall-clock latency and throughput follow the hypervisor's steal, and
/// CPU per op follows the neighbours' load, by up to 30% between two sets
/// of ten runs of the same code on cluster_scatter. The write-side
/// metrics are absent on the read-only workloads; error_ratio is 0 when
/// nothing fails; peak RSS is bimodal.
pub const PRINTED_ONLY: &[(&str, &str, &str, &str)] = &[
    ("read_p50_us", "us", "all", "open-loop read latency from each request's due time: the median over consecutive windows of about 1500 reads (4 to 16) of each window's exact p50"),
    ("read_p99_us", "us", "all", "the same windows' exact p99 (at least ten samples beyond it), median over the windows; p90 and p95 are printed beside it"),
    ("throughput_ops_s", "ops/s", "all", "closed-loop completed ops per second over the same op mix, the median over bursts of about a second"),
    ("cpu_us_per_op", "us", "all", "CPU time, user plus system, of the whole process (servers, router and load generator) per completed op in the closed loop: the lower quartile over the bursts, since a shared host's neighbours only add to a burst's cost; time the hypervisor stole is not in it"),
    ("write_p50_us", "us", "mixed_durable cluster_scatter", "open-loop update-ack latency from due time, median; on mixed_durable an ack means durable"),
    ("write_p99_us", "us", "mixed_durable cluster_scatter", "the same, 99th percentile, when at least ten samples lie beyond it"),
    ("error_ratio", "fraction", "all", "ops that failed or were refused over ops attempted, every phase; the JSON line carries it as failed and attempted"),
    ("write_amp", "ratio", "mixed_durable cluster_scatter", "backend page writes plus WAL records, one page each, per byte of acked updates"),
    ("peak_rss_mib", "MiB", "all", "peak resident set of the process running the workload (servers, load generator and references); glibc per-thread arenas make it bimodal on static_cold, about 55 or 69 MiB, a gap wider than any bound"),
    ("recover_s", "s", "mixed_durable", "reopen the durable store after the run, serve it, and answer the first query"),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Module the layer is named after.
    pub module: &'static str,
    /// End-to-end metrics it should move, and on which workload.
    pub moves: &'static str,
}

const WIRE: &str = "pc_serve::wire";
const SERVER: &str = "pc_serve::server, pc_serve::queue";
const VERSION: &str = "pc_pagestore::version";
const SEARCH: &str = "pc_pst, pc_btree, pc_intervaltree query and update calls";
const STORE: &str = "pc_pagestore store, pool and backend";
const WAL: &str = "pc_pagestore::wal";
const ROUTER: &str = "pc_serve::router";
const LOADGEN: &str = "the benchmark's load generator";
const TRACE: &str = "the traced run itself";

const M_WIRE: &str =
    "cpu_us_per_op, read_p50_us and throughput_ops_s on static_hot; encode_resp grows with t on static_cold";
const M_SERVER: &str =
    "read_p99_us, throughput_ops_s and cpu_us_per_op on static_hot; write_p50_us on mixed_durable";
const M_VERSION: &str =
    "read_p99_us and write_p99_us on mixed_durable; nothing on static_*, where no epoch installs";
const M_SEARCH_Q: &str = "cpu_us_per_op and read_p50_us on static_hot (navigation CPU); pages_read_per_query and read_p50_us on static_cold";
const M_SEARCH_A: &str = "write_p50_us on mixed_durable";
const M_STORE: &str =
    "read_p50_us, read_p99_us and pages_read_per_query on static_cold; near nothing on static_hot";
const M_WAL: &str = "write_p99_us, write_amp and recover_s on mixed_durable; absent elsewhere";
const M_ROUTER: &str =
    "read_p99_us, throughput_ops_s and cpu_us_per_op on cluster_scatter; absent elsewhere";
const M_LOADGEN: &str = "none: tells whether the open-loop phase ran on time";
const M_TRACE: &str = "none: the traced run's cost and its own end-to-end numbers";

macro_rules! layer {
    ($name:expr, $unit:expr, $better:expr, $module:expr, $moves:expr) => {
        Layer {
            name: $name,
            unit: $unit,
            better: $better,
            module: $module,
            moves: $moves,
        }
    };
}

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// that does not run on a workload reports 0 there.
pub const PER_LAYER: &[Layer] = &[
    layer!("wire.encode_req_ns", "ns", "lower", WIRE, M_WIRE),
    layer!("wire.decode_req_ns", "ns", "lower", WIRE, M_WIRE),
    layer!("wire.encode_resp_ns", "ns", "lower", WIRE, M_WIRE),
    layer!("wire.decode_resp_ns", "ns", "lower", WIRE, M_WIRE),
    layer!("wire.resp_bytes", "bytes", "lower", WIRE, M_WIRE),
    layer!("server.residual_us", "us", "lower", SERVER, M_SERVER),
    layer!("server.queue_wait_p99_us", "us", "lower", SERVER, M_SERVER),
    layer!(
        "server.batch_size_mean",
        "count",
        "higher",
        SERVER,
        M_SERVER
    ),
    layer!("server.overloaded", "count", "lower", SERVER, M_SERVER),
    layer!("server.group_commits", "count", "lower", SERVER, M_SERVER),
    layer!("version.pin_ns", "ns", "lower", VERSION, M_VERSION),
    layer!("version.install_us", "us", "lower", VERSION, M_VERSION),
    layer!("version.installed", "count", "lower", VERSION, M_VERSION),
    layer!("version.retained", "count", "lower", VERSION, M_VERSION),
    layer!(
        "version.reclaimed_pages",
        "pages",
        "higher",
        VERSION,
        M_VERSION
    ),
    layer!("search.query_us", "us", "lower", SEARCH, M_SEARCH_Q),
    layer!("search.nav_reads", "pages", "lower", SEARCH, M_SEARCH_Q),
    layer!("search.cache_reads", "pages", "lower", SEARCH, M_SEARCH_Q),
    layer!("search.node_reads", "pages", "lower", SEARCH, M_SEARCH_Q),
    layer!(
        "search.wasteful_reads",
        "pages",
        "lower",
        SEARCH,
        M_SEARCH_Q
    ),
    layer!("search.results", "count", "higher", SEARCH, M_SEARCH_Q),
    layer!("search.apply_us", "us", "lower", SEARCH, M_SEARCH_A),
    layer!("store.hit_read_ns", "ns", "lower", STORE, M_STORE),
    layer!("store.miss_read_ns", "ns", "lower", STORE, M_STORE),
    layer!("store.hit_ratio", "ratio", "higher", STORE, M_STORE),
    layer!(
        "store.backend_reads_per_query",
        "pages",
        "lower",
        STORE,
        M_STORE
    ),
    layer!(
        "store.evictions_per_query",
        "pages",
        "lower",
        STORE,
        M_STORE
    ),
    layer!("store.writes_per_update", "pages", "lower", STORE, M_STORE),
    layer!("store.live_pages", "pages", "lower", STORE, M_STORE),
    layer!("wal.commits", "count", "lower", WAL, M_WAL),
    layer!("wal.fsyncs_per_update", "count", "lower", WAL, M_WAL),
    layer!("wal.max_group", "count", "higher", WAL, M_WAL),
    layer!("wal.checkpoints", "count", "lower", WAL, M_WAL),
    layer!("wal.appends_per_update", "count", "lower", WAL, M_WAL),
    layer!("wal.replayed", "count", "lower", WAL, M_WAL),
    layer!("router.query_us", "us", "lower", ROUTER, M_ROUTER),
    layer!("router.slowest_leg_us", "us", "lower", ROUTER, M_ROUTER),
    layer!("router.merge_ns", "ns", "lower", ROUTER, M_ROUTER),
    layer!("router.fanout", "count", "lower", ROUTER, M_ROUTER),
    layer!("router.retries", "count", "lower", ROUTER, M_ROUTER),
    layer!("router.journal_len", "count", "lower", ROUTER, M_ROUTER),
    layer!("loadgen.lag_p99_us", "us", "lower", LOADGEN, M_LOADGEN),
    layer!(
        "loadgen.offered_ops_s",
        "ops/s",
        "higher",
        LOADGEN,
        M_LOADGEN
    ),
    layer!("trace.overhead_ratio", "ratio", "lower", TRACE, M_TRACE),
    layer!("trace.read_p50_us", "us", "lower", TRACE, M_TRACE),
    layer!("trace.read_p99_us", "us", "lower", TRACE, M_TRACE),
    layer!("trace.requests", "count", "higher", TRACE, M_TRACE),
];

/// Checks a run's metric names against the table it must match.
pub fn check_names(got: &[(&str, f64, &str)], trace: bool) -> Result<(), String> {
    let want: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let got: Vec<(&str, &str)> = got.iter().map(|&(n, _, u)| (n, u)).collect();
    if got != want {
        return Err(format!(
            "metrics {got:?} do not match the definitions {want:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
fn s(v: &str) -> String {
    Json::Str(v.to_string()).to_string()
}

#[cfg(test)]
fn num(v: f64) -> String {
    Json::Num(v).to_string()
}

/// The text of `BENCHMARK.json`.
#[cfg(test)]
fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": [{}],\n",
        command.iter().map(|c| s(c)).collect::<Vec<_>>().join(", ")
    );
    out += "  \"paths\": [\"perfbench\"],\n";
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |v: Vec<String>| v.join(",\n");
    out += "  \"workloads\": [\n";
    out += &rows(
        ALL.iter()
            .map(|w| {
                let p = w.params();
                format!("    {{\"name\": {}, \"why\": {}}}", s(p.name), s(p.why))
            })
            .collect(),
    );
    out += "\n  ],\n  \"end_to_end\": [\n";
    out += &rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    s(m.name),
                    s(m.unit),
                    s(m.better),
                    num(m.bound)
                )
            })
            .collect(),
    );
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    s(m.name),
                    s(m.unit),
                    s(m.better)
                )
            })
            .collect(),
    );
    out += "\n  ]\n}\n";
    out
}

/// What `perfbench/spec.json` records beside `BENCHMARK.json`, which may
/// hold only the benchmark contract's keys: each workload's parameters,
/// what each metric measures, the end-to-end metrics that are printed
/// but not gated, and the layer and end-to-end metric of each per-layer
/// metric. Rows are keyed by the names `BENCHMARK.json` uses.
#[cfg(test)]
fn describe() -> String {
    let workloads = ALL
        .iter()
        .map(|&w| {
            let p = w.params();
            Json::obj(vec![
                ("name", Json::Str(p.name.into())),
                ("n", Json::Int(p.n as u64)),
                ("page_size", Json::Int(PAGE as u64)),
                ("shards", Json::Int(p.shards as u64)),
                ("pool_pages", Json::Int(p.pool_pages as u64)),
                (
                    "structure_pages",
                    Json::Str("printed by each run on its cache: line".into()),
                ),
                ("flush", Json::Str(p.flush.into())),
                ("offered_rate_ops_s", Json::Num(p.rate)),
                ("write_share", Json::Num(p.write_share)),
                (
                    "connections",
                    Json::Str("min(hardware_threads, 2), one load thread each".into()),
                ),
                (
                    "rates_picked_on_hardware_threads",
                    Json::Int(RATES_PICKED_ON_THREADS as u64),
                ),
            ])
        })
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::Str(m.name.into())),
                ("what", Json::Str(m.what.into())),
            ])
        })
        .collect();
    let printed = PRINTED_ONLY
        .iter()
        .map(|&(name, unit, on, what)| {
            Json::obj(vec![
                ("name", Json::Str(name.into())),
                ("unit", Json::Str(unit.into())),
                ("workloads", Json::Str(on.into())),
                ("what", Json::Str(what.into())),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::Str(m.name.into())),
                ("layer", Json::Str(m.module.into())),
                ("moves", Json::Str(m.moves.into())),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(e2e)),
        ("end_to_end_printed_only", Json::Arr(printed)),
        ("per_layer", Json::Arr(layers)),
    ]);
    format!("{doc}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let want = benchmark_json();
        assert!(
            include_str!("../../BENCHMARK.json") == want,
            "BENCHMARK.json should read:\n{want}"
        );
    }

    #[test]
    fn committed_spec_matches_the_tables() {
        let want = describe();
        assert!(
            include_str!("../spec.json").trim_end() == want,
            "perfbench/spec.json should read:\n{want}"
        );
    }

    #[test]
    fn definitions_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for w in ALL {
            let p = w.params();
            assert!(name_ok(p.name) && p.why.len() <= 200, "{}", p.name);
        }
        for m in END_TO_END {
            assert!(
                name_ok(m.name) && unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let max_bound = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END
                .iter()
                .find(|m| m.name == "setup_s")
                .map(|m| m.bound),
            Some(max_bound)
        );
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        }
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "metric names are used once"
        );
    }
}
