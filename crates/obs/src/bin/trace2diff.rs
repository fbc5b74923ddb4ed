//! `trace2diff <left-trace> <right-trace>` — report the first divergent
//! event of two traces, with causal context.
//!
//! Exit status: 0 when the decoded record streams are identical, 1 when
//! they diverge (the report names the event, the open span stack, the
//! owning epoch and job) or when either file cannot be read/decoded.
//! The tool compares decoded records: it audits *behavior*, not
//! serialization.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(left), Some(right), None) = (args.next(), args.next(), args.next()) else {
        return mto_obs::cli::usage("trace2diff <left-trace> <right-trace>");
    };
    let l = match mto_obs::cli::load_trace("trace2diff", &left) {
        Ok(records) => records,
        Err(e) => return mto_obs::cli::fail(&e),
    };
    let r = match mto_obs::cli::load_trace("trace2diff", &right) {
        Ok(records) => records,
        Err(e) => return mto_obs::cli::fail(&e),
    };
    match mto_obs::diff::first_divergence(&l, &r) {
        None => {
            println!("traces identical ({} events)", l.len());
            ExitCode::SUCCESS
        }
        Some(d) => {
            print!("{}", mto_obs::diff::render(&d));
            ExitCode::FAILURE
        }
    }
}
