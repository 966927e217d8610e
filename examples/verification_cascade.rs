//! The Figure-1 verification cascade end-to-end: one seeded error per
//! class, each caught by the stage the paper assigns to it.
//!
//! ```text
//! cargo run --release --example verification_cascade
//! ```

use symbad_core::{cascade, RunCtx};

fn main() {
    let (report, _) = cascade::run(&RunCtx::default());
    println!("Symbad verification cascade\n");
    for s in &report.stages {
        println!("level {} — {}", s.level, s.stage);
        println!("  seeded error : {}", s.seeded_error);
        println!("  caught       : {}", s.caught);
        println!("  fix certified: {}", s.clean_passes);
        println!("  evidence     : {}\n", s.detail);
    }
    println!(
        "cascade effective (every stage catches its error class): {}",
        report.all_effective()
    );
    assert!(report.all_effective());
}
