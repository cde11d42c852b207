//! Table V — the experiment machines, as modelled by the simulator.

use znn_bench::{header, row};
use znn_sim::Machine;

fn main() {
    println!("# Table V — machines (simulated models)\n");
    header(&[
        "CPU", "GHz", "cores/threads", "SMT throughput curve", "peak throughput (1-thread units)",
    ]);
    for m in Machine::table_v() {
        row(&[
            m.name.into(),
            format!("{}", m.ghz),
            format!("{} cores/{} threads", m.cores, m.hw_threads),
            format!("{:?}", m.smt_throughput),
            format!("{:.1}", m.total_throughput(m.hw_threads)),
        ]);
    }
    println!("\nAlso: this host reports {} hardware threads.",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
}
