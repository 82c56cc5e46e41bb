//! `chatiyp` — the command-line entry point of the reproduction.
//!
//! ```text
//! chatiyp ask "<question>"     answer one question (prints answer + Cypher)
//! chatiyp cypher "<query>"     run read-only Cypher directly
//! chatiyp serve [port] [--data-dir DIR] [--fsync POLICY] [--tiny]
//!                              start the HTTP JSON API (default port 8047);
//!                              with --data-dir, recover from DIR's
//!                              checkpoint + WAL and persist every ingest
//! chatiyp eval [n]             run n benchmark questions (default 312)
//! chatiyp stats                print dataset statistics
//! ```
//!
//! The graph is regenerated deterministically (seed 42) on every run; use
//! `examples/snapshot_cache.rs` for a cached-snapshot workflow, or
//! `serve --data-dir` for the durable one (see docs/DURABILITY.md).

use chatiyp_core::{ChatIyp, ChatIypConfig, DurabilityConfig};
use iyp_data::{generate, IypConfig};
use iyp_graphdb::FsyncPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ask") => {
            let question = args[1..].join(" ");
            if question.trim().is_empty() {
                eprintln!("usage: chatiyp ask \"<question>\"");
                std::process::exit(2);
            }
            let chat = build_pipeline();
            println!("{}", chat.ask(&question));
        }
        Some("cypher") => {
            let q = args[1..].join(" ");
            if q.trim().is_empty() {
                eprintln!("usage: chatiyp cypher \"<query>\"");
                std::process::exit(2);
            }
            let dataset = generate_dataset();
            match iyp_cypher::query(&dataset.graph, &q) {
                Ok(result) => print!("{result}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("serve") => {
            let opts = match ServeOptions::parse(&args[1..]) {
                Ok(opts) => opts,
                Err(e) => {
                    eprintln!("error: {e}");
                    eprintln!(
                        "usage: chatiyp serve [port] [--data-dir DIR] \
                         [--fsync always|every_n[:N]|off] [--tiny]"
                    );
                    std::process::exit(2);
                }
            };
            let config = chatiyp_server::ServerConfig {
                addr: format!("127.0.0.1:{}", opts.port)
                    .parse()
                    .expect("valid address"),
                ..Default::default()
            };
            // Bind first, build the graph in the background: the socket
            // answers 503 + Retry-After until the pipeline is published
            // (after WAL replay, when serving durably — /healthz flips
            // to 200 only once the recovered graph is live).
            let server =
                chatiyp_server::Server::start_deferred(config, move || opts.build_pipeline())
                    .expect("bind");
            println!("ChatIYP API listening on http://{}", server.addr());
            println!("graph loading in the background; poll GET /healthz for readiness");
            println!(
                "endpoints: POST /ask, POST /cypher, POST /admin/ingest, \
                 POST /admin/checkpoint, GET /healthz, GET /schema, \
                 GET /stats, GET /metrics"
            );
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Some("eval") => {
            let n: usize = args.get(1).and_then(|p| p.parse().ok()).unwrap_or(312);
            let mut config = chatiyp_bench::ExperimentConfig::default();
            config.eval.target_size = n;
            eprintln!("evaluating {n} questions ...");
            let run = chatiyp_bench::run_evaluation(&config);
            println!(
                "accuracy {:.1}% over {} questions",
                100.0 * run.accuracy(),
                run.records.len()
            );
            for kind in iyp_metrics::MetricKind::ALL {
                let s = iyp_metrics::summarize(&run.scores(kind));
                println!(
                    "{:<10} mean {:.3}  median {:.3}",
                    kind.name(),
                    s.mean,
                    s.median
                );
            }
        }
        Some("stats") => {
            let dataset = generate_dataset();
            let stats = iyp_graphdb::GraphStats::compute(&dataset.graph);
            println!(
                "{} nodes / {} relationships; mean degree {:.1}, max {}",
                stats.nodes, stats.rels, stats.degree.mean, stats.degree.max
            );
            for (label, n) in &stats.nodes_by_label {
                println!("  :{label:<14} {n}");
            }
            for (ty, n) in &stats.rels_by_type {
                println!("  [:{ty:<14}] {n}");
            }
        }
        _ => {
            eprintln!(
                "chatiyp — natural-language access to the (synthetic) Internet Yellow Pages\n\
                 \n\
                 usage:\n\
                 \x20 chatiyp ask \"<question>\"     answer one question\n\
                 \x20 chatiyp cypher \"<query>\"     run read-only Cypher\n\
                 \x20 chatiyp serve [port] [--data-dir DIR] [--fsync POLICY] [--tiny]\n\
                 \x20                              start the HTTP JSON API\n\
                 \x20 chatiyp eval [n]             run the benchmark\n\
                 \x20 chatiyp stats                dataset statistics"
            );
            std::process::exit(2);
        }
    }
}

fn generate_dataset() -> iyp_data::IypDataset {
    eprintln!("generating the synthetic IYP graph (seed 42) ...");
    generate(&IypConfig::default())
}

fn build_pipeline() -> ChatIyp {
    ChatIyp::new(generate_dataset(), ChatIypConfig::default())
}

/// Parsed `chatiyp serve` arguments.
struct ServeOptions {
    port: u16,
    data_dir: Option<std::path::PathBuf>,
    fsync: FsyncPolicy,
    tiny: bool,
}

impl ServeOptions {
    /// Parses `[port] [--data-dir DIR] [--fsync POLICY] [--tiny]` in any
    /// order. An unparseable port (or any unknown flag) is a hard error,
    /// never a silent fallback to the default port.
    fn parse(args: &[String]) -> Result<ServeOptions, String> {
        let mut opts = ServeOptions {
            port: 8047,
            data_dir: None,
            fsync: FsyncPolicy::Always,
            tiny: false,
        };
        let mut saw_port = false;
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--data-dir" => match it.next() {
                    Some(dir) => opts.data_dir = Some(dir.into()),
                    None => return Err("--data-dir needs a directory argument".into()),
                },
                "--fsync" => match it.next() {
                    Some(policy) => opts.fsync = FsyncPolicy::parse(policy)?,
                    None => return Err("--fsync needs a policy argument".into()),
                },
                "--tiny" => opts.tiny = true,
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown flag `{flag}`"));
                }
                port if !saw_port => {
                    opts.port = port
                        .parse()
                        .map_err(|_| format!("invalid port `{port}` (want 1-65535)"))?;
                    saw_port = true;
                }
                extra => return Err(format!("unexpected argument `{extra}`")),
            }
        }
        Ok(opts)
    }

    /// The dataset this server boots from when there is nothing to
    /// recover: `--tiny` trades realism for startup speed (crash tests,
    /// demos).
    fn base_dataset(&self) -> iyp_data::IypDataset {
        if self.tiny {
            eprintln!("generating the tiny synthetic IYP graph (seed 42) ...");
            generate(&IypConfig::tiny())
        } else {
            generate_dataset()
        }
    }

    /// Builds the pipeline: in-memory without `--data-dir`, otherwise
    /// recovered from the directory's checkpoint + WAL. Runs on the
    /// server's loader thread, so a failed recovery aborts the process
    /// with the offending path in the message rather than serving an
    /// empty graph.
    fn build_pipeline(self) -> ChatIyp {
        let Some(dir) = &self.data_dir else {
            return ChatIyp::new(self.base_dataset(), ChatIypConfig::default());
        };
        let dcfg = DurabilityConfig::new(dir).with_fsync(self.fsync);
        match ChatIyp::open_durable(ChatIypConfig::default(), &dcfg, || self.base_dataset()) {
            Ok((chat, report)) => {
                eprintln!(
                    "recovered {} (checkpoint {}, {} wal record{} replayed, fsync={})",
                    dir.display(),
                    report
                        .checkpoint_version
                        .map_or_else(|| "none".to_string(), |v| format!("v{v}")),
                    report.replayed,
                    if report.replayed == 1 { "" } else { "s" },
                    self.fsync.as_str(),
                );
                if report.torn_tail_bytes > 0 {
                    eprintln!(
                        "warning: dropped a torn {}–byte wal tail (interrupted final append)",
                        report.torn_tail_bytes
                    );
                }
                chat
            }
            Err(e) => {
                eprintln!("error: cannot recover {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
}
