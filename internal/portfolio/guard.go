package portfolio

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"time"

	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/router"
)

// Verdict is the typed outcome of one guarded tool run.
type Verdict struct {
	// Outcome is one of OutcomeOK, OutcomeError, OutcomeTimeout,
	// OutcomePanic, OutcomeInvalid or OutcomeCancelled.
	Outcome string
	// Result is the audited result (OutcomeOK only).
	Result *router.Result
	// Score is Result's achieved metric value (OutcomeOK only).
	Score int
	// Err explains every outcome but OutcomeOK; for OutcomeCancelled it
	// is the caller's cancellation cause.
	Err error
}

// toolReturn carries what the tool goroutine produced across the guard
// boundary: a result or error from the tool instance r, or a recovered
// panic with its stack.
type toolReturn struct {
	res      *router.Result
	err      error
	r        router.Router
	panicVal any
	stack    []byte
}

// Guard runs one tool over one prepared instance, fault-isolated. It is
// the single place a tool result enters the system, shared by the
// evaluation sweep, every portfolio racer and qubikos-route:
//
//   - the tool is built with e.Make(opts.Seed+7919) and lent opts.Budget
//     when it is a router.BudgetedRouter;
//   - it routes in its own goroutine under ctx plus opts.ToolTimeout, so
//     a wedged tool is abandoned (its goroutine leaks until its next ctx
//     poll — the price of isolation without preemption) and a panic is
//     contained, its value and stack logged;
//   - its router.Instrumented counters are recorded on sp once it
//     returns;
//   - its result is audited with router.Validate and must not beat the
//     proven optimum opts.Optimal (0 = unknown) in opts.Metric.
//
// The outcome class is recorded on sp as "outcome". Guard reads only
// Seed, ToolTimeout, Budget, Metric and Optimal from opts. Each caller
// keeps its own policy over the verdict: the sweep turns cancellation
// and invalid results into hard errors, the race feeds its breakers.
func Guard(ctx context.Context, sp *obs.Span, p *router.Prepared, e Entry, opts Options) Verdict {
	toolCtx, cancel := ctx, context.CancelFunc(func() {})
	if opts.ToolTimeout > 0 {
		toolCtx, cancel = context.WithTimeout(ctx, opts.ToolTimeout)
	}
	defer cancel()

	ch := make(chan toolReturn, 1)
	mk, seed, budget := e.Make, opts.Seed+7919, opts.Budget
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- toolReturn{panicVal: v, stack: debug.Stack()}
			}
		}()
		r := mk(seed)
		if br, ok := r.(router.BudgetedRouter); ok && budget != nil {
			br.SetWorkerBudget(budget)
		}
		out := toolReturn{r: r}
		out.res, out.err = r.RoutePreparedCtx(toolCtx, p)
		ch <- out
	}()

	var v Verdict
	select {
	case out := <-ch:
		if ins, ok := out.r.(router.Instrumented); ok {
			c := ins.Counters()
			sp.ArgInt("decisions", c.Decisions)
			sp.ArgInt("candidates", c.Candidates)
			sp.ArgInt("restarts", c.Restarts)
		}
		switch {
		case out.stack != nil:
			log.Printf("portfolio: tool %s panicked on %s: %v\n%s", e.Name, p.Device.Name(), out.panicVal, out.stack)
			v = Verdict{Outcome: OutcomePanic, Err: fmt.Errorf("tool panicked: %v", out.panicVal)}
		case out.err != nil && toolCtx.Err() != nil:
			// The deadline fired inside the tool and it unwound on its
			// own before the select noticed.
			v = stopped(ctx, opts.ToolTimeout)
		case out.err != nil:
			v = Verdict{Outcome: OutcomeError, Err: out.err}
		default:
			v.Score, v.Err = audit(p, out.res, opts.Metric, opts.Optimal)
			if v.Err != nil {
				v.Outcome = OutcomeInvalid
			} else {
				v.Outcome, v.Result = OutcomeOK, out.res
			}
		}
	case <-toolCtx.Done():
		// The tool overran its budget or the caller gave up; a cooperative
		// tool unwinds shortly after, a wedged one is left behind.
		v = stopped(ctx, opts.ToolTimeout)
	}
	sp.Arg("outcome", v.Outcome)
	return v
}

// stopped classifies a run cut short by its context: the caller's own
// cancellation, or else the per-tool timeout.
func stopped(ctx context.Context, timeout time.Duration) Verdict {
	if err := ctx.Err(); err != nil {
		return Verdict{Outcome: OutcomeCancelled, Err: err}
	}
	return Verdict{Outcome: OutcomeTimeout, Err: fmt.Errorf("tool timed out after %v", timeout)}
}

// audit checks a tool's result independently of the tool: it must be a
// valid routing of the instance (router.Validate), and its score in
// metric must not beat the proven optimum (0 = unknown), which would
// falsify the benchmark's guarantee.
func audit(p *router.Prepared, res *router.Result, metric family.Metric, optimal int) (int, error) {
	if err := router.Validate(p.Circuit, p.Device, res); err != nil {
		return 0, fmt.Errorf("invalid result: %w", err)
	}
	score := metric.Achieved(res)
	if optimal > 0 && score < optimal {
		return score, fmt.Errorf("result beats the proven optimal %s: %d < %d", metric, score, optimal)
	}
	return score, nil
}
