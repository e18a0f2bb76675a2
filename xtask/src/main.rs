//! Repo automation: the one driver behind every gate plane.
//!
//! ```text
//! cargo xtask lint | modelcheck | crashcheck | chaos | perfline | serve [flags]
//! cargo xtask <plane> --help             # that plane's flag table
//! cargo xtask <plane> --seed-bug all     # self-test: every planted bug convicted
//! ```
//!
//! The `cargo xtask` alias (`.cargo/config.toml`) builds this crate in
//! release mode — the sweeps spin up thousands of simulated worlds — and
//! each subcommand calls its plane's library directly; `plane.rs` holds the
//! flag parser and the `--seed-bug` self-test loop all six share.

mod gates;
mod modelcheck;
mod perfline;
mod plane;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map_or("", String::as_str) {
        "lint" => gates::lint(rest),
        "modelcheck" => modelcheck::run(rest),
        "crashcheck" => gates::crashcheck(rest),
        "chaos" => gates::chaos(rest),
        "perfline" => perfline::run(rest),
        "serve" => gates::serve(rest),
        _ => {
            eprintln!(
                "usage: cargo xtask lint|modelcheck|crashcheck|chaos|perfline|serve [flags] \
                 (`cargo xtask <plane> --help` lists a plane's flags)"
            );
            ExitCode::FAILURE
        }
    }
}

/// A gate's exit status.
fn verdict(ok: bool) -> ExitCode {
    ExitCode::from(u8::from(!ok))
}

/// The workspace root: parent of this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent dir").to_path_buf()
}
