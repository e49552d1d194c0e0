//! The networked-mode subcommands: `dagfl peer` and `dagfl tracker`.
//!
//! A networked session is one tracker plus N peers, each started as
//! its own process (typically on localhost for experiments):
//!
//! ```text
//! dagfl tracker --listen 127.0.0.1:7878 --expect 3 &
//! dagfl peer --preset smoke --client 0 --peers 3 --tracker 127.0.0.1:7878 &
//! dagfl peer --preset smoke --client 1 --peers 3 --tracker 127.0.0.1:7878 &
//! dagfl peer --preset smoke --client 2 --peers 3 --tracker 127.0.0.1:7878
//! ```
//!
//! Every peer reads the same rounds scenario for its dataset, model and
//! hyperparameters; the flags only describe the deployment.
//!
//! Every peer prints a `digest=` line at exit; equal digests mean the
//! session converged to one transaction set (the CI `network-smoke`
//! job asserts exactly this).

use std::error::Error;
use std::time::Duration;

use dagfl_core::{run_peer, PeerConfig, Tracker};

use crate::args::ParsedArgs;
use crate::dispatch::{load_scenario, rounds_hyperparameters};

/// `dagfl tracker`: serve peer discovery until `--expect` peers have
/// joined and left (forever without `--expect`).
pub fn tracker_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let listen = args.get_or("listen", "127.0.0.1:7878");
    let expect = args.get_count("expect")?;
    let mut tracker = Tracker::bind(listen)?;
    eprintln!("# tracker listening on {}", tracker.local_addr()?);
    let summary = tracker.run(expect)?;
    println!(
        "tracker done: {} joined, {} left",
        summary.joined, summary.left
    );
    Ok(())
}

/// `dagfl peer`: run one networked DAG-FL peer session and print the
/// convergence digest.
pub fn peer_command(args: &ParsedArgs) -> Result<(), Box<dyn Error>> {
    let scenario = load_scenario(args)?;
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    let client: u32 = args.get_parsed_or("client", 0)?;
    let peers = args.get_count_or("peers", 1)?;
    let config = PeerConfig {
        client,
        peers,
        listen: args.get_or("listen", "127.0.0.1:0").to_string(),
        tracker: args.get_or("tracker", "127.0.0.1:7878").to_string(),
        activations: args.get_parsed_or("activations", 4)?,
        interarrival: Duration::from_millis(args.get_parsed_or("interarrival-ms", 50u64)?),
        dag: rounds_hyperparameters(&scenario, args.command())?,
        settle: Duration::from_millis(args.get_parsed_or("settle-ms", 300u64)?),
        timeout: Duration::from_secs(args.get_parsed_or("timeout", 120u64)?),
        reconnect: args.flag("reconnect"),
        fanout: args.get_parsed_or("fanout", 0)?,
    };
    eprintln!(
        "# peer client={} peers={} tracker={} scenario={} dataset={}",
        client,
        peers,
        config.tracker,
        scenario.name,
        dataset.name()
    );
    let report = run_peer(&config, &dataset, &factory)?;
    println!(
        "peer {} digest={:016x} transactions={} published={} received={} peers_done={} \
         delivered={} dropped={} reconnects={}",
        report.client,
        report.digest,
        report.transactions,
        report.published,
        report.received,
        report.peers_done,
        report.delivered,
        report.dropped,
        report.reconnects
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_rejects_expect_zero() {
        // Serving forever is spelled by omitting `--expect`; an explicit
        // 0 is an error, raised before any socket is bound.
        let args = ParsedArgs::parse(["tracker", "--expect", "0"]).unwrap();
        let err = tracker_command(&args).expect_err("--expect 0 must fail");
        assert!(err.to_string().contains("expect"), "{err}");
        let args = ParsedArgs::parse(["tracker", "--expect", "3"]).unwrap();
        assert_eq!(args.get_count("expect").unwrap(), Some(3));
        let args = ParsedArgs::parse(["tracker"]).unwrap();
        assert_eq!(args.get_count("expect").unwrap(), None);
    }

    #[test]
    fn peer_command_rejects_zero_peers() {
        let args = ParsedArgs::parse([
            "peer",
            "--preset",
            "smoke",
            "--peers",
            "0",
            "--tracker",
            "127.0.0.1:1",
        ])
        .unwrap();
        let err = peer_command(&args).expect_err("--peers 0 must fail");
        assert!(err.to_string().contains("peers"), "{err}");
    }

    #[test]
    fn peer_command_rejects_malformed_flags() {
        for argv in [
            vec!["peer", "--preset", "smoke", "--client", "zero"],
            vec!["peer", "--preset", "smoke", "--interarrival-ms", "-5"],
            // No scenario, and scenarios a peer cannot honour.
            vec!["peer", "--tracker", "127.0.0.1:1"],
            vec![
                "peer",
                "--preset",
                "chaos-smoke",
                "--tracker",
                "127.0.0.1:1",
            ],
            vec![
                "peer",
                "--preset",
                "poisoning-p0.2",
                "--tracker",
                "127.0.0.1:1",
            ],
        ] {
            let args = ParsedArgs::parse(argv.clone()).unwrap();
            assert!(peer_command(&args).is_err(), "{argv:?}");
        }
    }

    #[test]
    fn peer_command_errors_without_a_tracker() {
        // Port 1 is closed: the session must fail fast, not hang.
        let args =
            ParsedArgs::parse(["peer", "--preset", "smoke", "--tracker", "127.0.0.1:1"]).unwrap();
        assert!(peer_command(&args).is_err());
    }
}
