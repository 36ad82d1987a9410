// Package cliconfig binds the flags skipperql and skipperd share — the
// dataset, engine, pipeline, fleet, fault and retry knobs — validates
// them, and builds the values both commands run with. The two commands
// differ only where Options says so.
package cliconfig

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// Options are the per-command differences.
type Options struct {
	// SegCache is the -segcache default.
	SegCache int
	// Local lets -engine accept "local": the pull plan without the
	// simulation.
	Local bool
}

// Flags holds the bound flag values until Config validates them.
type Flags struct {
	opts Options

	workload, format, engine, replication string
	sf, rows                              int
	clustered, prune, pipeline            bool
	cache, segCache, prefetch, decoders   int
	devices                               int

	faultTransient, faultCorrupt, faultStall float64
	faultStallDur, crashAt, crashDowntime    time.Duration
	faultCap                                 int
	faultSeed                                int64
	retryAttempts                            int
	retryBackoff                             time.Duration
}

// Bind declares the shared flags on fs.
func Bind(fs *flag.FlagSet, opts Options) *Flags {
	f := &Flags{opts: opts}
	// Dataset.
	fs.StringVar(&f.workload, "workload", "tpch", "dataset: tpch, ssb, mrbench, nref")
	fs.IntVar(&f.sf, "sf", 10, "scale factor / footprint in GB")
	fs.IntVar(&f.rows, "rows", 20, "tuples per 1 GB object")
	fs.BoolVar(&f.clustered, "clustered", false, "sort the TPC-H date columns before segmenting (makes date predicates prunable)")
	fs.StringVar(&f.format, "format", "v2", "segment wire format the store serves: mem, v1 or v2")
	// Engine.
	engines := "skipper or vanilla"
	if opts.Local {
		engines = "skipper, vanilla or local"
	}
	fs.StringVar(&f.engine, "engine", "skipper", "execution engine: "+engines)
	fs.IntVar(&f.cache, "cache", 10, "MJoin cache size in objects (skipper engine)")
	fs.IntVar(&f.segCache, "segcache", opts.SegCache, "segment cache budget in objects (0 = off), per tenant in skipperd; persists across statements and connections, so re-running a query hits")
	fs.BoolVar(&f.prune, "prune", true, "enable zone-map/Bloom data skipping of segment requests")
	// Pipeline.
	fs.BoolVar(&f.pipeline, "pipeline", false, "enable the async execution pipeline: scheduler-aware prefetch plus concurrent decode workers")
	fs.IntVar(&f.prefetch, "prefetch", 4, "prefetch budget in 1 GB objects ahead of demand (with -pipeline)")
	fs.IntVar(&f.decoders, "decode-workers", 2, "background decode workers (with -pipeline)")
	// Fleet.
	fs.IntVar(&f.devices, "devices", 1, "CSD fleet size: disk groups spread across this many devices, GETs fan out per placement")
	fs.StringVar(&f.replication, "replication", "none", "object replication across the fleet: none, full, hot or hot:N (with -devices > 1)")
	// Faults: a deterministic schedule applied afresh to every query's
	// device run. Rates of zero (the defaults) disable injection.
	fs.Float64Var(&f.faultTransient, "fault-transient", 0, "probability a device transfer fails transiently and is retried, in [0,1]")
	fs.Float64Var(&f.faultCorrupt, "fault-corrupt", 0, "probability a transfer delivers a corrupt payload — caught by checksum, quarantined and re-requested — in [0,1]")
	fs.Float64Var(&f.faultStall, "fault-stall", 0, "probability a transfer stalls for -fault-stall-dur extra simulated time, in [0,1]")
	fs.DurationVar(&f.faultStallDur, "fault-stall-dur", 3*time.Second, "extra simulated latency of a stalled transfer")
	fs.IntVar(&f.faultCap, "fault-cap", 3, "max transient+corrupt faults charged per object (negative = unlimited; retries may exhaust)")
	fs.Int64Var(&f.faultSeed, "fault-seed", 1, "seed of the deterministic fault schedule")
	fs.DurationVar(&f.crashAt, "crash-at", 0, "crash the device this far into each query's simulated run (0 = never)")
	fs.DurationVar(&f.crashDowntime, "crash-downtime", 0, "restart the device this long after -crash-at (0 with -crash-at set = permanent crash)")
	// Retry.
	fs.IntVar(&f.retryAttempts, "retry-attempts", 0, "max transfer attempts per object before the query fails (0 = default 12)")
	fs.DurationVar(&f.retryBackoff, "retry-backoff", 0, "base retry backoff, doubling per attempt up to 8s with deterministic jitter (0 = default 250ms)")
	return f
}

// Config is the validated configuration.
type Config struct {
	Workload  string
	SF, Rows  int
	Clustered bool
	Format    segment.Format
	// Local runs the pull plan without the simulation (skipperql only);
	// otherwise Mode is the simulated engine.
	Local    bool
	Mode     skipper.Mode
	Cache    int
	SegCache int
	Prune    bool
	// Pipeline is nil with -pipeline off.
	Pipeline    *skipper.PipelineConfig
	Devices     int
	Replication layout.Replication
	// Faults is nil when no fault is configured.
	Faults *faults.Plan
	// Retry is nil unless -retry-attempts or -retry-backoff overrides
	// the default policy.
	Retry *skipper.RetryPolicy
}

// Config validates the parsed flags. Its errors name the offending flag
// and are usage errors: the commands exit with status 2.
func (f *Flags) Config() (*Config, error) {
	c := &Config{
		Workload: f.workload, SF: f.sf, Rows: f.rows, Clustered: f.clustered,
		Cache: f.cache, SegCache: f.segCache, Prune: f.prune, Devices: f.devices,
	}
	if generators[f.workload] == nil {
		return nil, fmt.Errorf("-workload: unknown workload %q (want tpch, ssb, mrbench or nref)", f.workload)
	}
	// The generators and MJoin read zero as "use the default", which
	// would silently run a different configuration than the one asked
	// for; so would a negative budget.
	for _, v := range []struct {
		name     string
		value    int64
		positive bool
	}{
		{"sf", int64(f.sf), true},
		{"rows", int64(f.rows), true},
		{"cache", int64(f.cache), true},
		{"devices", int64(f.devices), true},
		{"segcache", int64(f.segCache), false},
		{"prefetch", int64(f.prefetch), false},
		{"decode-workers", int64(f.decoders), false},
		{"retry-attempts", int64(f.retryAttempts), false},
		{"retry-backoff", int64(f.retryBackoff), false},
	} {
		switch {
		case v.positive && v.value <= 0:
			return nil, fmt.Errorf("-%s must be positive", v.name)
		case v.value < 0:
			return nil, fmt.Errorf("-%s must not be negative", v.name)
		}
	}
	var err error
	if c.Format, err = segment.ParseFormat(f.format); err != nil {
		return nil, fmt.Errorf("-format: %w", err)
	}
	if f.opts.Local && f.engine == "local" {
		c.Local = true
	} else if c.Mode, err = skipper.ParseMode(f.engine); err != nil {
		if f.opts.Local {
			err = fmt.Errorf("unknown engine %q (want skipper, vanilla or local)", f.engine)
		}
		return nil, fmt.Errorf("-engine: %w", err)
	}
	if c.Replication, err = layout.ParseReplication(f.replication); err != nil {
		return nil, fmt.Errorf("-replication: %w", err)
	}
	if f.pipeline {
		c.Pipeline = &skipper.PipelineConfig{PrefetchBytes: int64(f.prefetch) * 1e9, DecodeWorkers: f.decoders}
	}
	plan := faults.Plan{
		Seed:               f.faultSeed,
		TransientRate:      f.faultTransient,
		StallRate:          f.faultStall,
		Stall:              f.faultStallDur,
		CorruptRate:        f.faultCorrupt,
		MaxFaultsPerObject: f.faultCap,
		CrashAt:            f.crashAt,
		CrashDowntime:      f.crashDowntime,
	}
	if plan.Enabled() {
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		c.Faults = &plan
	}
	if f.retryAttempts > 0 || f.retryBackoff > 0 {
		rp := skipper.DefaultRetryPolicy()
		if f.retryAttempts > 0 {
			rp.MaxAttempts = f.retryAttempts
		}
		if f.retryBackoff > 0 {
			rp.BaseBackoff = f.retryBackoff
		}
		c.Retry = rp
	}
	return c, nil
}

// generators build each -workload's dataset.
var generators = map[string]func(c *Config) *workload.Dataset{
	"tpch": func(c *Config) *workload.Dataset {
		return workload.TPCH(0, workload.TPCHConfig{SF: c.SF, RowsPerObject: c.Rows, Seed: 1, ClusteredDates: c.Clustered})
	},
	"ssb": func(c *Config) *workload.Dataset {
		return workload.SSB(0, workload.SSBConfig{SF: c.SF, RowsPerObject: c.Rows, Seed: 1})
	},
	"mrbench": func(c *Config) *workload.Dataset {
		return workload.MRBench(0, workload.MRBenchConfig{TotalGB: c.SF, RowsPerObject: c.Rows, Seed: 1})
	},
	"nref": func(c *Config) *workload.Dataset {
		return workload.NREF(0, workload.NREFConfig{TotalGB: c.SF, RowsPerObject: c.Rows, Seed: 1})
	},
}

// Dataset generates the configured dataset and re-encodes it in the
// wire format: the store then serves lazily decoded segments, scans pay
// (and report) real decode work, and the catalog statistics come from
// the v2 column directories. FormatMem keeps the generator's in-memory
// segments.
func (c *Config) Dataset() (*workload.Dataset, error) {
	return objstore.ReencodeDataset(generators[c.Workload](c), c.Format)
}
