//! The machine stamp every result carries, and process memory.
//!
//! Results are comparable only between runs with equal stamps: fsync
//! cost depends on the filesystem under the serve data directory,
//! simulation cost on the CPU, and codegen on the compiler.

use std::path::Path;
use uvllm_json::{s, Json};

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// Filesystem type of the mount holding the serve data directory.
    pub data_fs: String,
}

impl Stamp {
    pub fn collect(data_dir: &Path) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cpu_model: cpu_model(),
            rustc: rustc_version(),
            data_fs: filesystem_of(data_dir),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".to_string(), Json::Num(self.nproc as f64)),
            ("cpu_model".to_string(), s(self.cpu_model.clone())),
            ("rustc".to_string(), s(self.rustc.clone())),
            ("data_fs".to_string(), s(self.data_fs.clone())),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the longest mount point containing `dir`,
/// from `/proc/self/mountinfo`.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // `id parent major:minor root mount-point options... - fstype source super`
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(mount) = fields.get(4) else { continue };
        let Some(dash) = fields.iter().position(|f| *f == "-") else { continue };
        let Some(fstype) = fields.get(dash + 1) else { continue };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines().find(|line| line.starts_with("VmHWM:")).and_then(|line| {
                line.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
