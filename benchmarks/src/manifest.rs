//! Result provenance: what produced a number, carried inside every file
//! the harness writes. A provenance system whose own measurements have
//! none would be the wrong way round.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::proc::NODE_FLAGS;
use crate::stream::Stream;
use crate::sut;
use crate::workloads::Plan;

/// First line of a command's stdout, or `"unknown"` when it cannot run
/// (the driver's checkout is not a git repository, for one).
fn first_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// SHA-256 over the harness's own sources (path and content of each file,
/// in path order): two results are comparable only if this matches.
pub fn harness_hash(home: &Path) -> String {
    let mut files = vec![home.join("Cargo.toml"), home.join("run.sh")];
    if let Ok(entries) = std::fs::read_dir(home.join("src")) {
        files.extend(
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "rs")),
        );
    }
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(
            f.file_name()
                .map(|n| n.as_encoded_bytes())
                .unwrap_or_default(),
        );
        all.push(0);
        all.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
        all.push(0);
    }
    sut::sha256_hex(&all)
}

/// The `[profile.release]` table of a manifest, as written.
pub fn release_profile(manifest: &Path) -> String {
    let text = std::fs::read_to_string(manifest).unwrap_or_default();
    let Some(start) = text.find("[profile.release]") else {
        return "default".to_string();
    };
    text[start..]
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Everything needed to say where a result came from and to repeat it.
#[allow(clippy::too_many_arguments)]
pub fn manifest(
    home: &Path,
    repo: &Path,
    node_bin: &Path,
    plan: &Plan,
    stream: &Stream,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Json {
    let git_rev = first_line("git", &["rev-parse", "HEAD"], repo);
    let git_dirty = match Command::new("git")
        .args(["status", "--porcelain"])
        .current_dir(repo)
        .output()
    {
        Ok(o) if o.status.success() => Json::Bool(!o.stdout.is_empty()),
        _ => Json::Null,
    };
    let stream_sizes = Json::obj()
        .with("shape", stream.shape.name)
        .with("txs_per_block", stream.shape.txs_per_block)
        .with("blocks_per_batch", stream.shape.blocks_per_batch)
        .with("batches", stream.batches.len())
        .with("blocks", stream.blocks())
        .with("txs", stream.tx_ids.len())
        .with("body_bytes", stream.body_bytes())
        .with("warm_batches", plan.warm_batches)
        .with("writer_warm_batches", plan.writer_warm_batches)
        .with("rounds", plan.rounds)
        .with("main_batches", plan.main_batches())
        .with("write_slices_per_round", plan.write_slices)
        .with("batches_per_write_slice", plan.slice_batches)
        .with("point_slices_per_round", plan.point_slices)
        .with("ops_per_point_slice", plan.point_slice_ops)
        .with("audits_per_round", plan.audits)
        .with(
            "open_loop_post_per_s",
            plan.open_loop_rate.map_or(Json::Null, Json::Num),
        );
    Json::obj()
        .with("build_git_rev", git_rev)
        .with("build_git_dirty", git_dirty)
        .with("build_rustc", first_line("rustc", &["-V"], repo))
        .with(
            "os_arch",
            format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH),
        )
        .with(
            "profile",
            Json::obj()
                .with(
                    "node",
                    format!("release: {}", release_profile(&repo.join("Cargo.toml"))),
                )
                .with(
                    "harness",
                    format!("release: {}", release_profile(&home.join("Cargo.toml"))),
                ),
        )
        .with("nproc", crate::proc::nproc())
        .with("node_bin", node_bin.display().to_string())
        .with("node_flags", NODE_FLAGS)
        .with(
            "ledger_settings",
            format!(
                "hot {} blocks, finality {}, {} ingest threads",
                sut::HOT_CAPACITY,
                sut::FINALITY_DEPTH,
                sut::INGEST_THREADS
            ),
        )
        .with("durability", sut::DURABILITY)
        .with("workload", plan.workload)
        .with("seed", seed)
        .with("seconds", seconds)
        .with("trace", trace)
        .with("smoke", smoke)
        .with("stream", stream_sizes)
        .with("harness_sha256", harness_hash(home))
        .with(
            "generator_cmdline",
            std::env::args().collect::<Vec<_>>().join(" "),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_is_read_from_the_manifest() {
        let home = Path::new(env!("CARGO_MANIFEST_DIR"));
        assert_eq!(
            release_profile(&home.join("Cargo.toml")),
            "lto = \"thin\" codegen-units = 4"
        );
        assert_eq!(release_profile(&home.join("no-such-file")), "default");
    }

    #[test]
    fn harness_hash_is_stable_and_hex() {
        let home = Path::new(env!("CARGO_MANIFEST_DIR"));
        let h = harness_hash(home);
        assert_eq!(h.len(), 64);
        assert_eq!(h, harness_hash(home));
    }
}
