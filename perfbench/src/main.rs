//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Records, Chrome traces, checkpoints and the primed kernel
//! tuning file go to `.bench_out/` under the working directory.

use perfbench::workload::{Inputs, Scale, Workload};
use perfbench::{bench, setup, Options};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Set-up samples taken in separate processes, besides the main one.
const SETUP_CHILDREN: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    role: Role,
}

enum Role {
    Main,
    /// Resolve (sweep) the kernels once so the tuning file exists.
    Prime,
    /// Measure one set-up and print its seconds.
    SetupChild,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut role) =
        (None, 1, 10.0_f64, false, Role::Main);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--prime" => role = Role::Prime,
            "--setup-child" => role = Role::SetupChild,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        role,
    })
}

/// Runs this executable again with `extra` arguments and returns its last
/// standard-output line.
fn child(args: &Args, extra: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            extra,
        ])
        .output()
        .map_err(|e| format!("spawn {extra}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{extra} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    Ok(stdout.lines().last().unwrap_or("").to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let out_dir = out_dir.canonicalize().expect("the output directory exists");
    // Every process of the benchmark resolves its kernels from the same
    // primed file, so set-up time never mixes sweeps with file hits.
    let tune_file = out_dir.join("tune-v1.json");
    std::env::set_var("HPLAI_TUNE_FILE", &tune_file);

    match args.role {
        Role::Prime => {
            mxp_blas::kernel_info_f32();
            mxp_blas::kernel_info_f64();
            return ExitCode::SUCCESS;
        }
        Role::SetupChild => {
            let inp = Inputs::generate(args.workload, Scale::Full, args.seed, &out_dir);
            println!("{}", setup(&inp).0);
            return ExitCode::SUCCESS;
        }
        Role::Main => {}
    }

    if !tune_file.exists() {
        if let Err(e) = child(&args, "--prime") {
            eprintln!("perfbench: priming the tuning file failed: {e}");
            return ExitCode::from(1);
        }
    }
    let mut extra_setup = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_CHILDREN {
            let sample = child(&args, "--setup-child")
                .and_then(|line| line.trim().parse::<f64>().map_err(|e| e.to_string()));
            match sample {
                Ok(s) => extra_setup.push(s),
                Err(e) => {
                    eprintln!("perfbench: set-up child failed: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }

    let out = bench(&Options {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        out_dir,
        extra_setup,
    });
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
