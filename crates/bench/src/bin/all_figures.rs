//! Run every figure harness in sequence (convenience entry point).

fn run(name: &str) {
    let exe = std::env::current_exe().unwrap();
    let dir = exe.parent().unwrap();
    let status = std::process::Command::new(dir.join(name))
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
    assert!(status.success(), "{name} failed");
}

fn main() {
    for fig in [
        "fig6_build",
        "fig9b_speedup",
        "fig10_msf",
        "fig11b_backends",
        "fig12_ternary",
    ] {
        run(fig);
    }
}
