//! Validates a telemetry JSON-lines file (as written by `--telemetry`):
//! every non-empty line must parse as a JSON object carrying the
//! required `component`, `metric` and `value` keys, plus the
//! kind-specific fields (`series`, `alert`, `profile` records carry
//! timestamps, tenant/severity, folded stacks). Exits non-zero with the
//! first offending line on failure — the in-tree CI checker, so the
//! hermetic build needs no external JSON tooling.
//!
//! ```text
//! telemetry_check <file.jsonl> [--require-kinds a,b,c]
//! ```
//!
//! `--require-kinds` additionally demands at least one record of each
//! listed kind (e.g. `series,alert,profile`), so CI fails when an
//! exporter silently stops emitting a record family.
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<PathBuf> = None;
    let mut kinds: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--require-kinds" => match args.get(i + 1) {
                Some(k) => {
                    kinds = Some(k.clone());
                    i += 2;
                }
                None => return usage("--require-kinds needs a comma-separated list"),
            },
            other if path.is_none() => {
                path = Some(PathBuf::from(other));
                i += 1;
            }
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(path) = path else {
        return usage("missing input file");
    };
    match cim_obs::export::validate_file(&path) {
        Ok(lines) => println!("{}: {lines} valid telemetry lines", path.display()),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(kinds) = kinds {
        let wanted: Vec<&str> = kinds.split(',').map(str::trim).collect();
        match cim_obs::export::require_kinds(&path, &wanted) {
            Ok(counts) => {
                let parts: Vec<String> = wanted
                    .iter()
                    .zip(&counts)
                    .map(|(k, n)| format!("{k}={n}"))
                    .collect();
                println!("{}: kinds present: {}", path.display(), parts.join(" "));
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("telemetry_check: {err}");
    eprintln!("usage: telemetry_check <file.jsonl> [--require-kinds a,b,c]");
    ExitCode::FAILURE
}
