package cliconfig

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/skipper"
)

// parse binds the shared flags on a fresh flag set and validates args.
func parse(t *testing.T, opts Options, args ...string) (*Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, opts)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f.Config()
}

func TestDefaults(t *testing.T) {
	c, err := parse(t, Options{SegCache: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload != "tpch" || c.SF != 10 || c.Rows != 20 || c.Cache != 10 || c.SegCache != 8 ||
		!c.Prune || c.Mode != skipper.ModeSkipper || c.Local || c.Devices != 1 ||
		c.Pipeline != nil || c.Faults != nil || c.Retry != nil {
		t.Fatalf("defaults: %+v", c)
	}
	if c, err = parse(t, Options{}); err != nil || c.SegCache != 0 {
		t.Fatalf("segcache default 0: %+v, %v", c, err)
	}
}

// TestValidation: every out-of-range or unknown value is rejected with
// an error naming its flag; documented sentinels stay accepted.
func TestValidation(t *testing.T) {
	cases := []struct {
		args []string
		opts Options
		// want is a substring of the error; empty means accepted.
		want string
	}{
		{[]string{"-sf", "0"}, Options{}, "-sf must be positive"},
		{[]string{"-sf", "-3"}, Options{}, "-sf must be positive"},
		{[]string{"-rows", "0"}, Options{}, "-rows must be positive"},
		{[]string{"-cache", "0"}, Options{}, "-cache must be positive"},
		{[]string{"-devices", "0"}, Options{}, "-devices must be positive"},
		{[]string{"-segcache", "-1"}, Options{}, "-segcache must not be negative"},
		{[]string{"-prefetch", "-1"}, Options{}, "-prefetch must not be negative"},
		{[]string{"-decode-workers", "-2"}, Options{}, "-decode-workers must not be negative"},
		{[]string{"-retry-attempts", "-1"}, Options{}, "-retry-attempts must not be negative"},
		{[]string{"-retry-backoff", "-1s"}, Options{}, "-retry-backoff must not be negative"},
		{[]string{"-workload", "tpcx"}, Options{}, "-workload"},
		{[]string{"-format", "v9"}, Options{}, "-format"},
		{[]string{"-replication", "some"}, Options{}, "-replication"},
		{[]string{"-engine", "local"}, Options{}, "-engine"},
		{[]string{"-engine", "turbo"}, Options{Local: true}, "want skipper, vanilla or local"},
		{[]string{"-fault-transient", "1.5"}, Options{}, "transient"},
		{[]string{"-engine", "local"}, Options{Local: true}, ""},
		{[]string{"-segcache", "0", "-prefetch", "0", "-decode-workers", "0"}, Options{}, ""},
		{[]string{"-fault-transient", "0.2", "-fault-cap", "-1"}, Options{}, ""},
	}
	for _, c := range cases {
		_, err := parse(t, c.opts, c.args...)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: got %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

func TestBuiltValues(t *testing.T) {
	c, err := parse(t, Options{}, "-pipeline", "-prefetch", "3", "-decode-workers", "5",
		"-devices", "2", "-replication", "hot", "-fault-transient", "0.3", "-crash-at", "20s",
		"-retry-attempts", "7", "-engine", "vanilla")
	if err != nil {
		t.Fatal(err)
	}
	if c.Pipeline == nil || c.Pipeline.PrefetchBytes != 3e9 || c.Pipeline.DecodeWorkers != 5 {
		t.Fatalf("pipeline %+v", c.Pipeline)
	}
	if c.Devices != 2 || c.Replication.Kind != layout.ReplicateHot || c.Mode != skipper.ModeVanilla {
		t.Fatalf("fleet/engine %+v", c)
	}
	if c.Faults == nil || c.Faults.TransientRate != 0.3 || c.Faults.CrashAt != 20*time.Second || c.Faults.MaxFaultsPerObject != 3 {
		t.Fatalf("faults %+v", c.Faults)
	}
	if def := skipper.DefaultRetryPolicy(); c.Retry == nil || c.Retry.MaxAttempts != 7 || c.Retry.BaseBackoff != def.BaseBackoff {
		t.Fatalf("retry %+v", c.Retry)
	}
}

func TestDataset(t *testing.T) {
	c, err := parse(t, Options{}, "-sf", "2", "-rows", "3", "-format", "mem")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Catalog.AllObjects()) == 0 {
		t.Fatal("empty dataset")
	}
}
