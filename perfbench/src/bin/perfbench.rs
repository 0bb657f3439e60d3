//! Untraced benchmark run: end-to-end metrics, system allocator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s>`

fn main() {
    std::process::exit(autobal_perfbench::main(None));
}
