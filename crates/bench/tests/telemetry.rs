//! `--telemetry` writes the world a figure traced and nothing else.

use papyrus_bench::BenchArgs;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::json::{self, Json};
use papyrus_telemetry::NVM_PID_BASE;
use papyruskv::{Context, OpenFlags, Options, Platform};

/// A world of `ranks` ranks on a platform of its own (one NVM store a
/// rank, plus a PFS no rank touches), each rank putting one key; traced as
/// `args` says.
fn run(args: &BenchArgs, ranks: usize) {
    let platform = Platform::new(SystemProfile::test_profile(), ranks);
    let world = WorldConfig::for_tests(ranks).with_telemetry(args.telemetry_begin());
    World::run(world, move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://bench-tel").unwrap();
        let db = ctx.open("db", OpenFlags::create(), Options::small()).unwrap();
        db.put(format!("k{}", ctx.rank()).as_bytes(), b"v").unwrap();
        db.close().unwrap();
        ctx.finalize().unwrap();
    });
}

/// After two worlds have run, the trace names the second world's stores —
/// its two NVM stores — and none of the first world's four, nor a PFS.
#[test]
fn the_trace_names_only_the_last_worlds_stores() {
    let path = std::env::temp_dir().join(format!("papyrus-bench-tel-{}.json", std::process::id()));
    let path = path.to_str().unwrap().to_string();
    let args = BenchArgs::from_args(["--telemetry".to_string(), path.clone()]).unwrap();
    run(&args, 4);
    run(&args, 2);
    args.telemetry_end();
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let mut stores: Vec<(u32, String)> = doc
        .get("traceEvents")
        .unwrap()
        .items()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
        .map(|e| {
            let pid = e.get("pid").and_then(Json::as_f64).unwrap() as u32;
            let name = e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str);
            (pid, name.unwrap().to_string())
        })
        .filter(|(pid, _)| *pid >= NVM_PID_BASE)
        .collect();
    stores.sort();
    let profile = SystemProfile::test_profile();
    let nvm = format!("nvm {}", profile.nvm.name);
    let expected = [(NVM_PID_BASE, nvm.clone()), (NVM_PID_BASE + 1, nvm)];
    assert_eq!(stores, expected);
}
