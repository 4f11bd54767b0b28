use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::engine::{self, EngineArgs};
use perfbench::measure::{self, Options};
use perfbench::workload::{bench_by_name, Workload};

const USAGE: &str =
    "usage: perfbench --workload <converge|explore|parallel> --seed N --seconds S --trace <0|1>
       perfbench --engine <workload> --bench <BenchmarkId> --check-seed N [--trace-out FILE]
       perfbench --setup <BenchmarkId>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(flags) => flags,
        Err(e) => return usage_error(&e),
    };
    if let Some(name) = flags.get("setup") {
        if flags.len() != 1 {
            return usage_error("--setup takes no other flag");
        }
        return match bench_by_name(name) {
            Some(id) => {
                println!("{}", engine::setup_s(id));
                ExitCode::SUCCESS
            }
            None => usage_error(&format!("unknown benchmark `{name}`")),
        };
    }
    if flags.contains_key("engine") {
        let args = match engine_args(&flags) {
            Ok(a) => a,
            Err(e) => return usage_error(&e),
        };
        return match engine::run(&args) {
            Ok(report) => {
                println!("{}", report.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: writing the trace: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match options(&flags) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    match measure::measure(&opts) {
        Ok(m) => {
            m.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// `--key value` pairs; every flag takes exactly one value.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{arg}`"))?;
        let value = it.next().ok_or(format!("`{arg}` needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("`{arg}` given twice"));
        }
    }
    Ok(flags)
}

fn take<'a>(flags: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or(format!("missing --{key}"))
}

fn number(flags: &BTreeMap<String, String>, key: &str) -> Result<u64, String> {
    take(flags, key)?
        .parse()
        .map_err(|_| format!("--{key} takes a whole number"))
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    Workload::by_name(name).ok_or(format!("unknown workload `{name}`"))
}

fn options(flags: &BTreeMap<String, String>) -> Result<Options, String> {
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    let trace = match take(flags, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Options {
        workload: workload(take(flags, "workload")?)?,
        seed: number(flags, "seed")?,
        seconds: number(flags, "seconds")?,
        trace,
    })
}

fn engine_args(flags: &BTreeMap<String, String>) -> Result<EngineArgs, String> {
    if let Some(extra) = flags
        .keys()
        .find(|k| !["engine", "bench", "check-seed", "trace-out"].contains(&k.as_str()))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    let workload = workload(take(flags, "engine")?)?;
    let bench = take(flags, "bench")?;
    let bench = bench_by_name(bench)
        .filter(|id| workload.benches.contains(id))
        .ok_or(format!(
            "workload {} has no benchmark `{bench}`",
            workload.name
        ))?;
    Ok(EngineArgs {
        workload,
        bench,
        check_seed: number(flags, "check-seed")?,
        trace_out: flags.get("trace-out").map(PathBuf::from),
    })
}
