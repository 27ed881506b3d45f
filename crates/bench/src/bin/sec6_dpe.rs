//! Regenerates §VI: Dot Product Engine vs CPU vs GPU (latency,
//! throughput, power), including the per-component breakdown of the CIM
//! batch-1 operating point. Pass a layer dimension to override the
//! default paper-scale 4096; pass `--telemetry out.jsonl` to export the
//! raw device metrics.
fn main() {
    let (args, tel_path) = cim_obs::export::split_telemetry_arg(std::env::args().skip(1));
    let dim = args.first().and_then(|s| s.parse().ok()).unwrap_or(4096);
    let (report, tel) = cim_bench::experiments::sec6::run_with_telemetry(dim, 6);
    print!("{}", cim_bench::experiments::sec6::render(&report));
    if let Some(path) = tel_path {
        let lines = cim_obs::export::write_export(&tel, &path)
            .unwrap_or_else(|e| panic!("telemetry export to {}: {e}", path.display()));
        eprintln!("telemetry: wrote {lines} lines to {}", path.display());
    }
}
