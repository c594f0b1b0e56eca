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

// runLint is the body of the optional "lint" phase: source lints over a
// fresh parse (spans must anchor to the user's source text, not to the
// transformed program, where dead code is already gone and expressions are
// rewritten), then the verdict audit over the transformed program the
// parallelizer actually classified.
func runLint(ctx context.Context, guard *comperr.Guard, rec *obs.Recorder, opts Options,
	src string, mode parallel.Mode, info *sem.Info, pz *parallel.Parallelizer,
	reports []*parallel.LoopReport) ([]lint.Diag, error) {

	fprog, err := lang.Parse(src)
	if err != nil {
		// The pipeline parsed the same text moments ago; a failure here is
		// an internal inconsistency, not a user error.
		return nil, fmt.Errorf("internal: lint reparse: %w", err)
	}
	finfo, err := sem.Check(fprog)
	if err != nil {
		return nil, fmt.Errorf("internal: lint recheck: %w", err)
	}
	// The fresh program has its own fact context. In Full mode the source
	// lints also get their own property analysis over it, so the
	// out-of-bounds proof can see index-array value bounds.
	ffc := dataflow.NewContext(finfo)
	var fprop *property.Analysis
	if mode == parallel.Full {
		fhp, err := cfg.BuildHCGCtx(ctx, fprog)
		if err != nil {
			return nil, err
		}
		fprop = property.New(ffc, fhp)
		fprop.NoRecurrence = opts.NoRecurrence
		fprop.Guard = guard
	}
	diags := lint.Source(ffc, fprop, guard)

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
