//! `raceline` — check a mini-C++ program for races and deadlocks, the way
//! the paper's debugging process (Fig 3) runs a server under Helgrind.
//!
//! Every subcommand lives in [`raceline::cmd`]; run `raceline` with no
//! arguments for the usage text, which is rendered from the option table
//! [`raceline::cmd::FLAGS`].

fn main() {
    std::process::exit(raceline::cmd::main(std::env::args().skip(1).collect()));
}
