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
    /// List scenario presets, or check scenario files (`--check <dir>`).
    Scenarios,
    /// Networked DAG-FL peer (gossip over TCP, tracker discovery).
    Peer,
    /// Peer-discovery tracker for the networked mode.
    Tracker,
    /// Print usage.
    Help,
}

/// Every subcommand with its word (`help` also answers to `--help` and
/// `-h`).
const COMMANDS: &[(&str, Command)] = &[
    ("dag", Command::Dag),
    ("fedavg", Command::FedAvg),
    ("fedprox", Command::FedProx),
    ("local", Command::Local),
    ("async", Command::Async),
    ("run", Command::Run),
    ("analyze", Command::Analyze),
    ("sweep", Command::Sweep),
    ("scenarios", Command::Scenarios),
    ("peer", Command::Peer),
    ("tracker", Command::Tracker),
    ("help", Command::Help),
];

impl Command {
    /// The subcommand word (`Command::FedAvg` is `fedavg`).
    pub fn word(self) -> &'static str {
        let entry = COMMANDS.iter().find(|(_, command)| *command == self);
        entry.expect("every command has a word").0
    }

    fn parse(word: &str) -> Option<Self> {
        let word = if matches!(word, "--help" | "-h") {
            "help"
        } else {
            word
        };
        COMMANDS.iter().find(|(w, _)| *w == word).map(|(_, c)| *c)
    }
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
    /// The subcommand does not take this flag.
    UnknownFlag {
        /// The flag name.
        flag: String,
        /// The subcommand it was given to.
        command: Command,
    },
    /// The subcommand takes the flag, but nothing the other flags select
    /// has the scenario key it sets (`--jitter` with the constant delay
    /// model).
    Inapplicable {
        /// The flag name.
        flag: String,
        /// The scenario key it sets.
        key: String,
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
            ParseError::UnknownFlag { flag, command } => {
                write!(f, "unknown flag `--{flag}` for `dagfl {}`", command.word())
            }
            ParseError::Inapplicable { flag, key } => write!(
                f,
                "flag `--{flag}` does not apply: the scenario it would edit has no `{key}` \
                 (a key of another mode, dataset, delay model or selector)"
            ),
        }
    }
}

impl Error for ParseError {}

/// Flags that take no value (their presence means `true`), so
/// `dagfl run --preset smoke --full` parses without a dangling token.
const BOOLEAN_FLAGS: &[&str] = &["full", "dry-run", "reconnect", "digest"];

/// One bit per subcommand, for the third column of [`FLAGS`].
const fn taker(command: Command) -> u16 {
    1 << command as u16
}
const DAG: u16 = taker(Command::Dag);
const FEDAVG: u16 = taker(Command::FedAvg);
const FEDPROX: u16 = taker(Command::FedProx);
const LOCAL: u16 = taker(Command::Local);
const ASYNC: u16 = taker(Command::Async);
const RUN: u16 = taker(Command::Run);
const ANALYZE: u16 = taker(Command::Analyze);
const SWEEP: u16 = taker(Command::Sweep);
const SCENARIOS: u16 = taker(Command::Scenarios);
const PEER: u16 = taker(Command::Peer);
const TRACKER: u16 = taker(Command::Tracker);
/// Everything that trains from flags.
const TRAIN: u16 = DAG | FEDAVG | FEDPROX | LOCAL | ASYNC | PEER;
/// Everything that walks a DAG from flags.
const WALK: u16 = DAG | ASYNC | PEER;

/// Every flag: its name, the scenario key it sets (`""` where the
/// subcommand reads the flag itself) and the subcommands that take it.
///
/// The table is the allow-list — [`ParsedArgs::parse`] rejects a flag
/// its subcommand does not list — and the one place a flag is tied to a
/// knob: a keyed row is a rename of a scenario key, whose type, default
/// and range are the scenario reader's. A flag listed twice means two
/// different things (`async --activations` is a scenario key,
/// `peer --activations` the session's own count).
pub(crate) const FLAGS: &[(&str, &str, u16)] = &[
    // The dataset word and the two sizes it reshapes are the CLI's own.
    ("dataset", "", TRAIN),
    ("clients", "", TRAIN),
    ("samples", "dataset.samples", TRAIN),
    ("seed", "dataset.seed", TRAIN),
    ("seed", "execution.seed", TRAIN),
    ("rounds", "execution.rounds", DAG | FEDAVG | FEDPROX | LOCAL),
    (
        "clients-per-round",
        "execution.clients_per_round",
        DAG | FEDAVG | FEDPROX,
    ),
    ("epochs", "execution.local_epochs", TRAIN & !LOCAL),
    ("batches", "execution.local_batches", TRAIN),
    ("batch-size", "execution.batch_size", TRAIN),
    ("lr", "execution.learning_rate", TRAIN),
    ("alpha", "execution.alpha", WALK),
    ("normalization", "execution.normalization", WALK),
    ("selector", "execution.selector", WALK),
    ("stop-margin", "execution.stop_margin", WALK),
    ("mu", "", FEDPROX),
    ("stragglers", "", FEDAVG | FEDPROX),
    ("activations", "execution.activations", ASYNC),
    ("interarrival", "execution.interarrival", ASYNC),
    ("delay-model", "execution.delay_model", ASYNC),
    ("delay", "execution.delay", ASYNC),
    ("jitter", "execution.jitter", ASYNC),
    ("slow-delay", "execution.slow_delay", ASYNC),
    // These two pick the `compute` word and their key with it.
    ("slow-fraction", "", ASYNC),
    ("slowdown", "", ASYNC),
    ("train-time", "execution.train_time", ASYNC),
    ("stale-policy", "execution.stale_policy", ASYNC),
    ("fanout", "execution.fanout", ASYNC),
    ("workers", "execution.workers", ASYNC | RUN),
    ("drop", "faults.drop", ASYNC),
    ("duplicate", "faults.duplicate", ASYNC),
    ("reorder", "faults.reorder", ASYNC),
    ("extra-delay", "faults.extra_delay", ASYNC),
    ("delay-boost", "faults.delay_boost", ASYNC),
    ("partition-start", "faults.partition_start", ASYNC),
    ("partition-heal", "faults.partition_heal", ASYNC),
    ("partition-split", "faults.partition_split", ASYNC),
    ("crash-at", "faults.crash_at", ASYNC),
    ("crash-peer", "faults.crash_peer", ASYNC),
    ("crash-restart", "faults.crash_restart", ASYNC),
    ("client", "", PEER),
    ("peers", "", PEER),
    ("tracker", "", PEER),
    ("listen", "", PEER | TRACKER),
    ("activations", "", PEER),
    ("interarrival-ms", "", PEER),
    ("settle-ms", "", PEER),
    ("timeout", "", PEER),
    ("reconnect", "", PEER),
    ("fanout", "", PEER),
    ("expect", "", TRACKER),
    ("scenario", "", RUN | ANALYZE),
    ("preset", "", RUN | ANALYZE),
    ("full", "", RUN | ANALYZE | SWEEP),
    ("digest", "", RUN),
    ("k", "analysis.k", ANALYZE),
    ("k-min", "analysis.k_min", ANALYZE),
    ("k-max", "analysis.k_max", ANALYZE),
    ("cadence", "analysis.cadence", ANALYZE),
    ("source", "analysis.source", ANALYZE),
    ("preset-base", "", SWEEP),
    ("axes", "", SWEEP),
    ("jobs", "", SWEEP),
    ("dry-run", "", SWEEP),
    ("csv", "", SWEEP),
    ("check", "", SCENARIOS),
];

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
                    if let Some(flag) = token.strip_prefix("--") {
                        if !FLAGS
                            .iter()
                            .any(|(f, _, takers)| *f == flag && takers & taker(command) != 0)
                        {
                            return Err(ParseError::UnknownFlag {
                                flag: flag.to_string(),
                                command,
                            });
                        }
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

    /// The flags provided (sorted, for error reporting).
    pub fn flags(&self) -> Vec<&str> {
        let mut flags: Vec<&str> = self.options.keys().map(String::as_str).collect();
        flags.sort_unstable();
        flags
    }

    /// `(scenario key, raw value)` for every keyed [`FLAGS`] row of this
    /// subcommand whose flag was given, in table order.
    pub(crate) fn scenario_keys(&self) -> Vec<(&'static str, &str)> {
        FLAGS
            .iter()
            .filter(|(_, key, takers)| !key.is_empty() && takers & taker(self.command) != 0)
            .filter_map(|(flag, key, _)| Some((*key, self.get(flag)?)))
            .collect()
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
    scenarios list scenario and sweep presets (each is its file under
              scenarios/); --check <dir> validates scenario and sweep files
    dag       Specializing-DAG simulation (the paper's algorithm)
    fedavg    centralized federated averaging baseline
    fedprox   FedProx baseline (use --mu, --stragglers)
    local     local-only training (no communication)
    async     event-driven asynchronous DAG simulation
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
    worker-count-independent hash of the final DAG, and
    `run --workers N` overrides an async scenario's event-loop worker
    count (results are byte-identical at any count).

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

FLAGS ARE SCENARIO KEYS:
    dag, fedavg, fedprox, local, async and peer compose a scenario from
    their flags and read it with the scenario-file reader, so a flag has
    the type, default and range of the key it names. A flag the
    subcommand does not take is an error, and so is a flag that does not
    apply to what the other flags select (--jitter with the constant
    delay model, --alpha with --selector random, --slow-fraction with
    neither cohort delays nor --slowdown): nothing is parsed and dropped.

COMMON FLAGS (defaults in parentheses):
    --dataset           fmnist | fmnist-relaxed | fmnist-author | poets |
                        cifar | fedprox-synthetic   (fmnist)
    --clients           number of clients           (dataset default)
    --samples           samples per client          (dataset default;
                        not fedprox-synthetic, which draws 50..200)
    --rounds            training rounds             (30; not async, peer)
    --clients-per-round active clients per round    (6; dag, fedavg, fedprox)
    --batches           local batches per epoch     (10)
    --epochs            local epochs                (1; not local)
    --batch-size        mini-batch size             (10)
    --lr                SGD learning rate           (0.05)
    --seed              master seed                 (42)

DAG FLAGS (dag, async, peer):
    --alpha             walk randomness parameter   (10)
    --normalization     simple | dynamic            (simple)
    --selector          accuracy | random | cumulative (accuracy)
    --stop-margin       accuracy-cliff guard margin (off)

FEDPROX FLAGS:
    --mu                proximal strength           (0.1)
    --stragglers        straggler fraction          (0.0)

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

PEER FLAGS (networked mode; the common and DAG flags above also apply):
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
    fn unknown_flags_are_errors_on_every_subcommand() {
        for line in [
            vec!["dag", "--rounds", "1", "--alhpa", "3"],
            vec!["run", "--preset", "smoke", "--alhpa", "3"],
            vec!["peer", "--client", "0", "--alhpa", "3"],
            vec!["tracker", "--alhpa", "3"],
            vec!["scenarios", "--alhpa", "3"],
            vec!["help", "--alhpa", "3"],
        ] {
            match ParsedArgs::parse(&line).unwrap_err() {
                ParseError::UnknownFlag { flag, command } => {
                    assert_eq!(flag, "alhpa");
                    assert_eq!(command.word(), line[0]);
                }
                other => panic!("{line:?}: unexpected error {other:?}"),
            }
        }
        // The table is per subcommand: a flag another one takes is as
        // unknown as a typo, and a flag two take can mean two things.
        assert!(ParsedArgs::parse(["local", "--alpha", "3"]).is_err());
        assert!(ParsedArgs::parse(["async", "--rounds", "3"]).is_err());
        assert!(ParsedArgs::parse(["fedavg", "--mu", "0.1"]).is_err());
        let peer = ParsedArgs::parse(["peer", "--activations", "4"]).unwrap();
        assert!(peer.scenario_keys().is_empty());
        let asynchronous = ParsedArgs::parse(["async", "--activations", "4"]).unwrap();
        assert_eq!(
            asynchronous.scenario_keys(),
            [("execution.activations", "4")]
        );
        let err = ParsedArgs::parse(["dag", "--alhpa", "3"]).unwrap_err();
        assert!(err.to_string().contains("--alhpa"), "{err}");
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
            "peer",
            "tracker",
        ] {
            assert!(USAGE.contains(cmd), "usage missing {cmd}");
        }
    }
}
