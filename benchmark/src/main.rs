//! `dagfl-benchmark`: see `benchmark/README.md`.

use dagfl_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dagfl_benchmark::suite::main(&args));
}
