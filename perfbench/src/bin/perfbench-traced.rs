//! Traced benchmark run: per-layer metrics, with every allocation
//! counted process-wide so that worker-thread allocations show too.
//!
//! `perfbench-traced --workload <name> --seed <n> --seconds <s>`

#[global_allocator]
static ALLOC: autobal_meminstr::CountingAlloc = autobal_meminstr::CountingAlloc::new();

fn main() {
    std::process::exit(autobal_perfbench::main(Some(
        autobal_meminstr::total_allocations,
    )));
}
