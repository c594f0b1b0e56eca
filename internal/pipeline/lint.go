package pipeline

import (
	"context"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/comperr"
	"repro/internal/core/property"
	"repro/internal/dataflow"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sem"
)

// runLint is the body of the optional "lint" phase: source lints over
// written, the copy of the program the compile took as parsed (spans must
// anchor to the user's source text, not to the transformed program, where
// dead code is already gone and expressions are rewritten), then the
// verdict audit over the transformed program the parallelizer actually
// classified.
func runLint(ctx context.Context, guard *comperr.Guard, rec *obs.Recorder, opts Options,
	written *lang.Program, mode parallel.Mode, info *sem.Info, pz *parallel.Parallelizer,
	reports []*parallel.LoopReport) ([]lint.Diag, error) {

	winfo, err := sem.Check(written)
	if err != nil {
		return nil, fmt.Errorf("internal: lint recheck: %w", err)
	}
	// The written program has its own fact context. In Full mode the
	// source lints also get their own property analysis over it, so the
	// out-of-bounds proof can see index-array value bounds.
	wfc := dataflow.NewContext(winfo)
	var wprop *property.Analysis
	if mode == parallel.Full {
		whp, err := cfg.BuildHCG(ctx, written, wfc.Graph)
		if err != nil {
			return nil, err
		}
		wprop = property.New(wfc, whp)
		wprop.NoRecurrence = opts.NoRecurrence
		wprop.Intraprocedural = opts.Intraprocedural
		wprop.Guard = guard
	}
	diags := lint.Source(wfc, wprop, guard)

	audit, err := lint.Audit(info, pz.Property(), reports, lint.AuditOptions{
		Ctx:   ctx,
		Guard: guard,
		Rec:   rec,
	})
	if err != nil {
		return nil, err
	}
	diags = append(diags, audit...)
	lint.Sort(diags)

	if rec.Enabled() {
		c := lint.Count(diags)
		rec.Count("lint.diags.error", int64(c.Errors))
		rec.Count("lint.diags.warning", int64(c.Warnings))
		rec.Count("lint.diags.info", int64(c.Infos))
	}
	return diags, nil
}
