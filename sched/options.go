package sched

// Config is the resolved set of run options. Adapters read it; callers
// build it implicitly through Options. The zero value of every knob that
// an algorithm consults is that algorithm's published default, so an
// empty option list reproduces the paper's configurations exactly.
//
// Options an algorithm does not understand are simply ignored — one
// option list can drive a heterogeneous algorithm sweep.
type Config struct {
	// Seed drives tie-breaking RNGs (BSA's critical-path tie breaks).
	Seed int64

	// FullRebuild selects BSA's legacy full-rebuild engine, the
	// correctness oracle of the incremental engine.
	FullRebuild bool

	// Insertion schedules DLS message hops into link idle gaps instead
	// of appending after the link's last use (a strictly stronger
	// baseline than Sih & Lee's published rule).
	Insertion bool

	// MaxSweeps bounds BSA's breadth-first pivot sweeps. 0 means "until
	// fixpoint"; 1 reproduces the paper's literal single-sweep
	// pseudocode.
	MaxSweeps int

	// GuardSlack is the relative schedule-length regression BSA's
	// migration guard tolerates. 0 means the engine default; negative
	// means a strict no-regression guard.
	GuardSlack float64

	// VIPFollow, RoutePruning, MigrationGuard and HeterogeneityAdjust are
	// ablation knobs; all default to on (the published algorithms).
	VIPFollow           bool
	RoutePruning        bool
	MigrationGuard      bool
	HeterogeneityAdjust bool
}

// Option customizes one Schedule call.
type Option func(*Config)

// NewConfig resolves an option list against the defaults. Adapters call
// this; applications rarely need to.
func NewConfig(opts ...Option) Config {
	cfg := Config{
		VIPFollow:           true,
		RoutePruning:        true,
		MigrationGuard:      true,
		HeterogeneityAdjust: true,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}

// WithSeed sets the tie-breaking RNG seed.
func WithSeed(seed int64) Option { return func(c *Config) { c.Seed = seed } }

// WithWorkers has no effect; it is kept so existing callers compile.
// BSA's migration decisions are serial by construction — each reads the
// timelines the previous commit left — so its candidate evaluation always
// runs sequentially, and no other algorithm runs intra-run workers.
//
// Deprecated: remove the call.
func WithWorkers(int) Option { return func(*Config) {} }

// WithFullRebuild toggles BSA's legacy full-rebuild oracle engine.
func WithFullRebuild(on bool) Option { return func(c *Config) { c.FullRebuild = on } }

// WithInsertion toggles DLS insertion-based link scheduling.
func WithInsertion(on bool) Option { return func(c *Config) { c.Insertion = on } }

// WithMaxSweeps bounds BSA's pivot sweeps (0 = until fixpoint).
func WithMaxSweeps(n int) Option { return func(c *Config) { c.MaxSweeps = n } }

// WithGuardSlack sets BSA's migration-guard regression tolerance
// (0 = engine default, negative = strict).
func WithGuardSlack(slack float64) Option { return func(c *Config) { c.GuardSlack = slack } }

// WithVIPFollow toggles BSA's VIP-following migration rule (ablation).
func WithVIPFollow(on bool) Option { return func(c *Config) { c.VIPFollow = on } }

// WithRoutePruning toggles BSA's route loop splicing (ablation).
func WithRoutePruning(on bool) Option { return func(c *Config) { c.RoutePruning = on } }

// WithMigrationGuard toggles BSA's bubble-up migration guard (ablation).
func WithMigrationGuard(on bool) Option { return func(c *Config) { c.MigrationGuard = on } }

// WithHeterogeneityAdjust toggles DLS's Delta(t,p) term (ablation).
func WithHeterogeneityAdjust(on bool) Option { return func(c *Config) { c.HeterogeneityAdjust = on } }
