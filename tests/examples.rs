//! The four examples are part of the public surface: each is compiled
//! here as a module and its `main` must return `Ok` (their output is
//! free to drift).

#[path = "../examples/quickstart.rs"]
mod quickstart;

#[path = "../examples/capacity_planning.rs"]
mod capacity_planning;

#[path = "../examples/region_balancing.rs"]
mod region_balancing;

#[path = "../examples/durable_restart.rs"]
mod durable_restart;

#[test]
fn quickstart_runs() {
    quickstart::main().expect("quickstart");
}

#[test]
fn capacity_planning_runs() {
    capacity_planning::main().expect("capacity_planning");
}

#[test]
fn region_balancing_runs() {
    region_balancing::main().expect("region_balancing");
}

#[test]
fn durable_restart_runs() {
    durable_restart::main().expect("durable_restart");
}
