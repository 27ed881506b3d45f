//! Regenerates Fig 6: slave -> cooperative -> integrated -> native.
//! Pass `--telemetry out.jsonl` to export the device metrics.
fn main() {
    let (_, tel_path) = cim_obs::export::split_telemetry_arg(std::env::args().skip(1));
    let (report, tel) = cim_bench::experiments::fig6::run_with_telemetry(32);
    print!("{}", cim_bench::experiments::fig6::render(&report));
    if let Some(path) = tel_path {
        let lines = cim_obs::export::write_export(&tel, &path)
            .unwrap_or_else(|e| panic!("telemetry export to {}: {e}", path.display()));
        eprintln!("telemetry: wrote {lines} lines to {}", path.display());
    }
}
