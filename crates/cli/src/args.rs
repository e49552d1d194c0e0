//! A small, dependency-free `--key value` argument parser.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// The experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Specializing-DAG round simulation.
    Dag,
    /// Centralized federated averaging.
    FedAvg,
    /// FedProx (FedAvg + proximal term).
    FedProx,
    /// Local-only training (no communication).
    Local,
    /// Event-driven asynchronous DAG simulation.
    Async,
    /// Run a declarative scenario (`--scenario <file>` or
    /// `--preset <name>`).
    Run,
    /// Run a scenario's specialization analytics and print the cluster
    /// assignment table (`--scenario <file>` or `--preset <name>`).
    Analyze,
    /// Expand and run a parameter-grid sweep (`dagfl sweep <file>` or
    /// `--preset-base <name> --axes <spec>`).
    Sweep,
    /// List scenario presets, or check/dump scenario files
    /// (`--check <dir>` / `--dump <dir>`).
    Scenarios,
    /// Walk-evaluation performance smoke; writes `BENCH_walk.json`.
    Perf,
    /// Networked DAG-FL peer (gossip over TCP, tracker discovery).
    Peer,
    /// Peer-discovery tracker for the networked mode.
    Tracker,
    /// Print usage.
    Help,
}

/// Every subcommand: its spelling on the command line and the titles of
/// the [`USAGE`] sections that document its flags.
const COMMANDS: [(&str, Command, &[&str]); 13] = [
    ("dag", Command::Dag, &["COMMON FLAGS", "DAG FLAGS"]),
    ("fedavg", Command::FedAvg, &["COMMON FLAGS"]),
    (
        "fedprox",
        Command::FedProx,
        &["COMMON FLAGS", "FEDPROX FLAGS"],
    ),
    ("local", Command::Local, &["COMMON FLAGS"]),
    (
        "async",
        Command::Async,
        &["COMMON FLAGS", "DAG FLAGS", "ASYNC FLAGS", "FAULT FLAGS"],
    ),
    ("run", Command::Run, &["RUN FLAGS", "SCENARIOS"]),
    ("analyze", Command::Analyze, &["ANALYZE FLAGS"]),
    ("sweep", Command::Sweep, &["SWEEP FLAGS"]),
    ("scenarios", Command::Scenarios, &["SCENARIOS"]),
    ("perf", Command::Perf, &["PERF FLAGS"]),
    (
        "peer",
        Command::Peer,
        &["COMMON FLAGS", "DAG FLAGS", "PEER FLAGS"],
    ),
    ("tracker", Command::Tracker, &["TRACKER FLAGS"]),
    ("help", Command::Help, &[]),
];

impl Command {
    fn parse(word: &str) -> Option<Self> {
        match word {
            "--help" | "-h" => Some(Command::Help),
            _ => COMMANDS
                .iter()
                .find(|(w, _, _)| *w == word)
                .map(|&(_, c, _)| c),
        }
    }

    /// This subcommand's row of [`COMMANDS`].
    fn entry(self) -> (&'static str, &'static [&'static str]) {
        COMMANDS
            .iter()
            .find(|(_, c, _)| *c == self)
            .map(|&(word, _, sections)| (word, sections))
            .expect("every subcommand is listed in COMMANDS")
    }
}

/// The lines of the [`USAGE`] section whose title line starts with
/// `title`, title included, up to the next section.
fn usage_section(title: &str) -> Option<Vec<&'static str>> {
    let mut lines = USAGE.lines().skip_while(|line| !line.starts_with(title));
    let header = lines.next()?;
    let mut section = vec![header];
    section.extend(lines.take_while(|line| line.is_empty() || line.starts_with(' ')));
    while section.last().is_some_and(|line| line.is_empty()) {
        section.pop();
    }
    Some(section)
}

/// The usage text for one subcommand (`dagfl <sub> --help`): its
/// one-line summary from the command list plus the flag sections of
/// [`USAGE`] that apply to it. `help` itself gets the full text.
pub fn usage_for(command: Command) -> String {
    if command == Command::Help {
        return USAGE.to_string();
    }
    let (word, sections) = command.entry();
    let entry = format!("    {word} ");
    // A command-list entry is its first line plus the continuation
    // lines indented to the description column.
    let summary: Vec<&str> = usage_section("COMMANDS")
        .unwrap_or_default()
        .into_iter()
        .skip_while(|line| !line.starts_with(&entry))
        .enumerate()
        .take_while(|(i, line)| *i == 0 || line.starts_with("              "))
        .map(|(_, line)| line.get(14..).unwrap_or("").trim())
        .collect();
    let mut out = format!(
        "dagfl {word} — {}\n\nUSAGE:\n    dagfl {word} [--flag value]...\n",
        summary.join(" ")
    );
    for title in sections {
        for line in usage_section(title).unwrap_or_default() {
            if line.starts_with(title) {
                out.push('\n');
            }
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Errors from command-line parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// The subcommand is not recognised.
    UnknownCommand(String),
    /// A flag is missing its value.
    MissingValue(String),
    /// A flag appeared that does not start with `--`.
    UnexpectedToken(String),
    /// A value could not be parsed as the expected type.
    InvalidValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "missing subcommand (try `dagfl help`)"),
            ParseError::UnknownCommand(c) => write!(f, "unknown subcommand `{c}`"),
            ParseError::MissingValue(flag) => write!(f, "flag `{flag}` is missing its value"),
            ParseError::UnexpectedToken(t) => write!(f, "unexpected token `{t}`"),
            ParseError::InvalidValue { flag, value } => {
                write!(f, "invalid value `{value}` for flag `{flag}`")
            }
        }
    }
}

impl Error for ParseError {}

/// Flags that take no value (their presence means `true`), so
/// `dagfl run --preset smoke --full` parses without a dangling token.
const BOOLEAN_FLAGS: &[&str] = &["full", "dry-run", "reconnect", "digest", "help"];

/// A parsed command line: the subcommand plus `--key value` options and
/// (for `sweep`) one optional positional argument.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    command: Command,
    options: HashMap<String, String>,
    positional: Option<String>,
}

impl ParsedArgs {
    /// Parses the argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for malformed input.
    pub fn parse<I, S>(args: I) -> Result<Self, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut iter = args.into_iter();
        let command_word = iter.next().ok_or(ParseError::MissingCommand)?;
        let command = Command::parse(command_word.as_ref())
            .ok_or_else(|| ParseError::UnknownCommand(command_word.as_ref().to_string()))?;
        let mut options = HashMap::new();
        let mut positional: Option<String> = None;
        let mut pending: Option<String> = None;
        for token in iter {
            let token = token.as_ref();
            match pending.take() {
                Some(flag) => {
                    options.insert(flag, token.to_string());
                }
                None => {
                    if token == "-h" {
                        // `dagfl <sub> -h` is `dagfl <sub> --help`.
                        options.insert("help".to_string(), "true".to_string());
                    } else if let Some(flag) = token.strip_prefix("--") {
                        if BOOLEAN_FLAGS.contains(&flag) {
                            options.insert(flag.to_string(), "true".to_string());
                        } else {
                            pending = Some(flag.to_string());
                        }
                    } else if command == Command::Sweep && positional.is_none() {
                        // `dagfl sweep <file>` takes the sweep file (or
                        // sweep preset name) as its one positional arg.
                        positional = Some(token.to_string());
                    } else {
                        return Err(ParseError::UnexpectedToken(token.to_string()));
                    }
                }
            }
        }
        if let Some(flag) = pending {
            return Err(ParseError::MissingValue(format!("--{flag}")));
        }
        Ok(Self {
            command,
            options,
            positional,
        })
    }

    /// The subcommand.
    pub fn command(&self) -> Command {
        self.command
    }

    /// Raw string option, if present.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.options.get(flag).map(String::as_str)
    }

    /// Whether a valueless boolean flag (`--full`, `--dry-run`) was
    /// given.
    pub fn flag(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The positional argument (`dagfl sweep <file>`), if present.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// String option with default.
    pub fn get_or<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.get(flag).unwrap_or(default)
    }

    /// Typed option with default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, ParseError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ParseError::InvalidValue {
                flag: flag.to_string(),
                value: raw.to_string(),
            }),
        }
    }

    /// A positive count option with default: like
    /// [`ParsedArgs::get_parsed_or`], but an explicit `0` is an error
    /// rather than a silent stand-in for the default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable
    /// or zero.
    pub fn get_count_or(&self, flag: &str, default: usize) -> Result<usize, ParseError> {
        match self.get_parsed_or(flag, default)? {
            0 => Err(ParseError::InvalidValue {
                flag: flag.to_string(),
                value: "0".to_string(),
            }),
            count => Ok(count),
        }
    }

    /// An optional positive count: `None` when absent, an error when
    /// unparsable or zero.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::InvalidValue`] when present but unparsable
    /// or zero.
    pub fn get_count(&self, flag: &str) -> Result<Option<usize>, ParseError> {
        self.get(flag)
            .map(|_| self.get_count_or(flag, 1))
            .transpose()
    }

    /// The flags provided (sorted, for error reporting).
    pub fn flags(&self) -> Vec<&str> {
        let mut flags: Vec<&str> = self.options.keys().map(String::as_str).collect();
        flags.sort_unstable();
        flags
    }
}

/// The usage text for `dagfl help`.
pub const USAGE: &str = "\
dagfl — DAG-based decentralized federated learning

USAGE:
    dagfl <COMMAND> [--flag value]...

COMMANDS:
    run       run a declarative scenario (--scenario <file> | --preset <name>)
    sweep     expand and run a parameter grid over a base scenario
              (sweep <file|sweep-preset> | --preset-base <name> --axes <spec>)
    analyze   cluster client models and the approval graph of a scenario
              run, print assignments and quality metrics
              (--scenario <file> | --preset <name>)
    scenarios list scenario and sweep presets; --check <dir> validates
              scenario and sweep files, --dump <dir> writes every preset
    dag       Specializing-DAG simulation (the paper's algorithm)
    fedavg    centralized federated averaging baseline
    fedprox   FedProx baseline (use --mu, --stragglers)
    local     local-only training (no communication)
    async     event-driven asynchronous DAG simulation
    perf      walk-evaluation performance smoke (writes BENCH_walk.json)
    peer      networked DAG-FL peer: gossip over TCP, tracker discovery,
              snapshot sync for late joiners
    tracker   peer-discovery tracker for the networked mode
    help      print this message

SCENARIOS:
    A scenario file describes a whole experiment (dataset, model,
    execution mode, attack, output) as TOML; see scenarios/*.toml.
    Presets resolve at quick scale by default; pass --full (or set
    DAGFL_FULL=1) for the paper's scale — the flag wins over the
    environment. `run --digest` also prints the tangle digest, a
    backend- and worker-count-independent hash of the final DAG, and
    `run --workers N` overrides an async scenario's event-loop worker
    count (results are byte-identical at any count).

RUN FLAGS:
    --scenario          scenario file to run
    --preset            scenario preset to run
    --full              resolve presets at the paper's scale
    --digest            also print the final tangle digest
    --workers           async event-loop worker count     (the scenario's)

SWEEP FLAGS:
    <file>              sweep file (scenarios/sweep-*.toml) or sweep preset name
    --preset-base       base scenario preset for an ad-hoc sweep
    --axes              ad-hoc axes, e.g. \"alpha=0.1,1,10;replicate=0..3\"
    --jobs              worker threads                  (available cores)
    --dry-run           list the expanded cells without running
    --csv               comparison CSV name             (spec default)
    --full              resolve preset bases at the paper's scale

ANALYZE FLAGS (mirror the [analysis] scenario section):
    --scenario          scenario file to run and analyse
    --preset            scenario preset to run and analyse
    --k                 fixed cluster count        (auto-k by silhouette)
    --k-min             auto-k sweep lower bound              (2)
    --k-max             auto-k sweep upper bound              (6)
    --cadence           analyse every N rounds     (0 = final round only)
    --source            parameters | approvals | both         (both)
    --full              resolve presets at the paper's scale

COMMON FLAGS (defaults in parentheses):
    --dataset           fmnist | fmnist-relaxed | fmnist-author | poets |
                        cifar | fedprox-synthetic   (fmnist)
    --clients           number of clients           (dataset default)
    --samples           samples per client          (dataset default)
    --rounds            training rounds             (30)
    --clients-per-round active clients per round    (6)
    --batches           local batches per epoch     (10)
    --epochs            local epochs                (1)
    --batch-size        mini-batch size             (10)
    --lr                SGD learning rate           (0.05)
    --seed              master seed                 (42)
    --backend           matmul backend: naive | tiled (tiled)

DAG FLAGS:
    --alpha             walk randomness parameter   (10)
    --normalization     simple | dynamic            (simple)
    --selector          accuracy | random | cumulative (accuracy)
    --stop-margin       accuracy-cliff guard margin (off)

FEDPROX FLAGS:
    --mu                proximal strength           (0.1)
    --stragglers        straggler fraction          (0.0)

PERF FLAGS:
    --transactions      synthetic tangle size                 (500)
    --walks             walks per phase (cold + warm cache)   (20)
    --samples           samples per synthetic client          (240)
    --alpha             walk randomness parameter             (10)
    --clients           async-phase client count, min 3       (64)
    --workers           async-phase training threads          (4)
    --activations       async-phase total activations         (--clients)
    --train-steps       training-phase SGD steps per backend  (60)
    --out               output JSON path   (results/BENCH_walk.json)
    --train-out         training JSON path (results/BENCH_train.json)

ASYNC FLAGS:
    --activations       total client activations              (200)
    --interarrival      mean activation gap of one client     (1.0)
    --delay-model       constant | jitter | cohorts           (constant)
    --delay             base (fast-link) propagation delay    (2.0)
    --jitter            uniform jitter band width             (0.0)
    --slow-fraction     slow-cohort fraction, network+compute (0.3)
    --slow-delay        slow-link base delay (cohorts model)  (8.0)
    --slowdown          compute slowdown of the slow cohort   (1.0 = uniform;
                        with cohorts delays the same clients are network-slow)
    --train-time        logical training duration             (0.0)
    --stale-policy      publish | reselect | discard          (publish)
    --fanout            gossip targets per publish, 0 = all   (0)
    --workers           training threads; batching is decided by event
                        times, so any count is byte-identical (1)

FAULT FLAGS (async only; deterministic per --seed, defaults are inert):
    --drop              per-envelope drop probability         (0.0)
    --duplicate         per-envelope duplication probability  (0.0)
    --reorder           per-envelope reorder probability      (0.0)
    --extra-delay       per-envelope latency-spike probability(0.0)
    --delay-boost       magnitude of delay-based faults       (1.0)
    --partition-start   partition window opens (logical time)
    --partition-heal    partition window heals (logical time)
    --partition-split   peers 0..split vs split..n            (1)
    --crash-at          crash one peer at this logical time
    --crash-peer        which peer crashes                    (0)
    --crash-restart     restart time (omit: stays down)

PEER FLAGS (networked mode; dataset/DAG flags above also apply):
    --client            this peer's client id                 (0)
    --peers             total peers in the session            (1)
    --tracker           tracker address                       (127.0.0.1:7878)
    --listen            gossip listen address, port 0 = any   (127.0.0.1:0)
    --activations       local training activations            (4)
    --interarrival-ms   pause between activations, ms         (50)
    --settle-ms         quiet period before exiting, ms       (300)
    --timeout           session timeout, seconds              (120)
    --reconnect         retry lost connections with backoff   (off)
    --fanout            gossip targets per publish, 0 = all   (0)

TRACKER FLAGS:
    --listen            tracker listen address                (127.0.0.1:7878)
    --expect            exit after this many peers join+leave (serve forever)
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let args = ParsedArgs::parse(["dag", "--rounds", "10", "--alpha", "5"]).unwrap();
        assert_eq!(args.command(), Command::Dag);
        assert_eq!(args.get("rounds"), Some("10"));
        assert_eq!(args.get_parsed_or("alpha", 0.0f32).unwrap(), 5.0);
        assert_eq!(args.flags(), vec!["alpha", "rounds"]);
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let args = ParsedArgs::parse(["fedavg"]).unwrap();
        assert_eq!(args.command(), Command::FedAvg);
        assert_eq!(args.get_parsed_or("rounds", 30usize).unwrap(), 30);
        assert_eq!(args.get_or("dataset", "fmnist"), "fmnist");
    }

    #[test]
    fn all_commands_parse() {
        for (word, cmd) in [
            ("dag", Command::Dag),
            ("fedavg", Command::FedAvg),
            ("fedprox", Command::FedProx),
            ("local", Command::Local),
            ("async", Command::Async),
            ("run", Command::Run),
            ("analyze", Command::Analyze),
            ("sweep", Command::Sweep),
            ("scenarios", Command::Scenarios),
            ("perf", Command::Perf),
            ("peer", Command::Peer),
            ("tracker", Command::Tracker),
            ("help", Command::Help),
            ("--help", Command::Help),
        ] {
            assert_eq!(ParsedArgs::parse([word]).unwrap().command(), cmd);
        }
    }

    #[test]
    fn missing_command_errors() {
        assert_eq!(
            ParsedArgs::parse(Vec::<String>::new()).unwrap_err(),
            ParseError::MissingCommand
        );
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            ParsedArgs::parse(["frobnicate"]).unwrap_err(),
            ParseError::UnknownCommand(_)
        ));
    }

    #[test]
    fn missing_value_errors() {
        assert!(matches!(
            ParsedArgs::parse(["dag", "--rounds"]).unwrap_err(),
            ParseError::MissingValue(_)
        ));
    }

    #[test]
    fn bare_token_errors() {
        assert!(matches!(
            ParsedArgs::parse(["dag", "ten"]).unwrap_err(),
            ParseError::UnexpectedToken(_)
        ));
    }

    #[test]
    fn sweep_takes_one_positional_argument() {
        let args =
            ParsedArgs::parse(["sweep", "scenarios/sweep-smoke.toml", "--jobs", "2"]).unwrap();
        assert_eq!(args.command(), Command::Sweep);
        assert_eq!(args.positional(), Some("scenarios/sweep-smoke.toml"));
        assert_eq!(args.get("jobs"), Some("2"));
        // Only one positional is accepted, and only for `sweep`.
        assert!(matches!(
            ParsedArgs::parse(["sweep", "a.toml", "b.toml"]).unwrap_err(),
            ParseError::UnexpectedToken(_)
        ));
        assert_eq!(ParsedArgs::parse(["run"]).unwrap().positional(), None);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let args = ParsedArgs::parse(["run", "--preset", "smoke", "--full"]).unwrap();
        assert!(args.flag("full"));
        assert_eq!(args.get("preset"), Some("smoke"));
        let args = ParsedArgs::parse(["sweep", "x.toml", "--dry-run", "--jobs", "4"]).unwrap();
        assert!(args.flag("dry-run"));
        assert_eq!(args.get_parsed_or("jobs", 1usize).unwrap(), 4);
        let args = ParsedArgs::parse(["run", "--preset", "smoke", "--digest"]).unwrap();
        assert!(args.flag("digest"));
        assert!(!ParsedArgs::parse(["run"]).unwrap().flag("full"));
    }

    #[test]
    fn invalid_typed_value_errors() {
        let args = ParsedArgs::parse(["dag", "--rounds", "many"]).unwrap();
        assert!(matches!(
            args.get_parsed_or("rounds", 1usize).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn help_after_a_subcommand_is_a_flag() {
        for invocation in [
            vec!["perf", "--help"],
            vec!["run", "--preset", "smoke", "--help"],
            vec!["sweep", "-h"],
        ] {
            let args = ParsedArgs::parse(invocation.clone()).expect("parses");
            assert!(args.flag("help"), "{invocation:?}");
            assert_eq!(args.positional(), None);
        }
    }

    #[test]
    fn every_subcommand_has_its_own_usage() {
        for cmd in [
            Command::Dag,
            Command::FedAvg,
            Command::FedProx,
            Command::Local,
            Command::Async,
            Command::Run,
            Command::Analyze,
            Command::Sweep,
            Command::Scenarios,
            Command::Perf,
            Command::Peer,
            Command::Tracker,
        ] {
            let usage = usage_for(cmd);
            let (word, sections) = cmd.entry();
            assert!(usage.starts_with(&format!("dagfl {word} — ")), "{usage}");
            // The summary line is never empty: the command is listed.
            assert!(!usage.lines().next().unwrap().ends_with("— "), "{usage}");
            for title in sections {
                assert!(usage_section(title).is_some(), "USAGE lacks {title}");
                assert!(usage.contains(title), "{cmd:?} usage lacks {title}");
            }
        }
        assert!(usage_for(Command::Perf).contains("--transactions"));
        assert!(!usage_for(Command::Perf).contains("--stale-policy"));
        assert!(usage_for(Command::Async).contains("--stale-policy"));
        assert!(usage_for(Command::Run).contains("--digest"));
        assert_eq!(usage_for(Command::Help), USAGE);
    }

    #[test]
    fn count_options_reject_zero() {
        let args = ParsedArgs::parse(["async", "--clients", "0", "--jobs", "3"]).unwrap();
        assert_eq!(
            args.get_count_or("clients", 15).unwrap_err(),
            ParseError::InvalidValue {
                flag: "clients".into(),
                value: "0".into()
            }
        );
        assert_eq!(args.get_count_or("jobs", 1).unwrap(), 3);
        assert_eq!(args.get_count_or("rounds", 30).unwrap(), 30);
        assert_eq!(args.get_count("samples").unwrap(), None);
        assert_eq!(args.get_count("jobs").unwrap(), Some(3));
        assert!(args.get_count("clients").is_err());
    }

    #[test]
    fn usage_mentions_every_command() {
        for cmd in [
            "dag",
            "fedavg",
            "fedprox",
            "local",
            "async",
            "run",
            "analyze",
            "sweep",
            "scenarios",
            "perf",
            "peer",
            "tracker",
        ] {
            assert!(USAGE.contains(cmd), "usage missing {cmd}");
        }
    }
}
