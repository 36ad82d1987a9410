package main

import (
	"fmt"
	"slices"

	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// This file holds what every workload shares: how the program is
// configured, how datasets are generated, and the oracle results are
// computed against.

// pipeline is the async pipeline every workload runs with, as skipperd
// -pipeline configures it: four 1 GB objects of prefetch ahead of demand
// and two decode workers, which with the client itself fill the 2-CPU
// host the benchmark targets.
func pipeline() *skipper.PipelineConfig {
	return &skipper.PipelineConfig{PrefetchBytes: 4e9, DecodeWorkers: 2, DecodeAhead: 2}
}

// dataset generates the date-clustered TPC-H dataset for the seed. It
// returns the in-memory original, which the oracle reads, and its
// columnar v2 re-encoding, which the program serves.
func dataset(sf, rowsPerObject int, seed int64) (mem, v2 *workload.Dataset, err error) {
	mem = workload.TPCH(0, workload.TPCHConfig{SF: sf, RowsPerObject: rowsPerObject, Seed: seed, ClusteredDates: true})
	v2, err = objstore.ReencodeDataset(mem, segment.FormatV2)
	if err != nil {
		return nil, nil, fmt.Errorf("encode dataset: %w", err)
	}
	return mem, v2, nil
}

// oracle computes each statement's expected rows with workload.Evaluate
// over the in-memory dataset: a local pull plan with no simulation, no
// data skipping, no segment encoding, cache, prefetch or MJoin. With
// nonEmpty, every statement must return at least one row, so no check
// compares empty results.
func oracle(mem *workload.Dataset, stmts []string, nonEmpty bool) ([][]string, error) {
	pl := &sql.Planner{Catalog: mem.Catalog}
	out := make([][]string, len(stmts))
	for i, stmt := range stmts {
		spec, err := pl.Plan(stmt)
		if err != nil {
			return nil, fmt.Errorf("oracle: plan statement %d: %w", i, err)
		}
		rows, err := workload.Evaluate(mem, spec)
		if err != nil {
			return nil, fmt.Errorf("oracle: evaluate statement %d: %w", i, err)
		}
		if nonEmpty && len(rows) == 0 {
			return nil, fmt.Errorf("oracle: statement %d returns no rows on this dataset", i)
		}
		out[i] = render(rows)
	}
	return out, nil
}

// render formats rows exactly as the server sends them.
func render(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// sameRows reports whether a result equals the oracle's, byte for byte.
func sameRows(got, want []string) bool { return slices.Equal(got, want) }
