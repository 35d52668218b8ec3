package portfolio

import (
	"bytes"
	"context"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/family"
	"repro/internal/obs"
	"repro/internal/sabre"
)

// Every outcome class of the shared guard, each produced by a chaos
// tool, and each recorded on the caller's span.
func TestGuardOutcomes(t *testing.T) {
	p, opt := prep(t)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name    string
		ctx     context.Context
		mode    chaos.Mode
		mut     func(*chaos.Router)
		timeout time.Duration
		want    string
		errHas  string
	}{
		{name: "ok", mode: chaos.Pass, want: OutcomeOK},
		// Slow is not dead: a delay under a generous timeout finishes.
		{name: "slow", mode: chaos.Delay, mut: func(r *chaos.Router) { r.Sleep = 5 * time.Millisecond },
			timeout: 5 * time.Second, want: OutcomeOK},
		{name: "error", mode: chaos.Fail, want: OutcomeError, errHas: "injected tool failure"},
		{name: "timeout", mode: chaos.HangUntilCancel, timeout: 50 * time.Millisecond,
			want: OutcomeTimeout, errHas: "timed out after 50ms"},
		{name: "panic", mode: chaos.Panic, mut: func(r *chaos.Router) { r.PanicValue = "boom" },
			want: OutcomePanic, errHas: "tool panicked: boom"},
		{name: "invalid", mode: chaos.WrongResult, want: OutcomeInvalid, errHas: "invalid result"},
		{name: "cancelled", ctx: dead, mode: chaos.HangUntilCancel, want: OutcomeCancelled, errHas: "context canceled"},
	}
	log.SetOutput(&bytes.Buffer{}) // the panic case's stack is asserted elsewhere
	defer log.SetOutput(os.Stderr)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.New(4)
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			sp, ctx := obs.Begin(obs.NewContext(ctx, tr), "test", "guard")
			v := Guard(ctx, &sp, p, chaosEntry(tc.name, 0, tc.mode, tc.mut),
				Options{Seed: 11, ToolTimeout: tc.timeout, Optimal: opt})
			sp.End()
			if v.Outcome != tc.want {
				t.Fatalf("outcome = %q (err %v), want %q", v.Outcome, v.Err, tc.want)
			}
			if tc.want == OutcomeOK {
				if v.Err != nil || v.Result == nil || v.Score < opt {
					t.Fatalf("ok verdict = %+v, want an audited result scoring >= %d", v, opt)
				}
			} else if v.Result != nil || v.Err == nil || !strings.Contains(v.Err.Error(), tc.errHas) {
				t.Fatalf("verdict = %+v, want no result and an error containing %q", v, tc.errHas)
			}
			var sb strings.Builder
			if err := tr.WriteChrome(&sb); err != nil {
				t.Fatal(err)
			}
			if want := `"outcome":"` + tc.want + `"`; !strings.Contains(sb.String(), want) {
				t.Errorf("span missing %s:\n%s", want, sb.String())
			}
		})
	}
}

// A racer that panics in a /v1/route race leaves its stack in the log,
// exactly as a panicking sweep cell does.
func TestRunReportsPanicStack(t *testing.T) {
	p, opt := prep(t)
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	entries := []Entry{
		chaosEntry("panicky", 0, chaos.Panic, func(r *chaos.Router) { r.PanicValue = "index out of range [-1]" }),
		healthyEntry("healthy", 0, 1),
	}
	res, err := Run(context.Background(), p, entries, Options{Seed: 11, Optimal: opt})
	if err != nil {
		t.Fatal(err)
	}
	if r := racerByTool(t, res, "panicky"); r.Outcome != OutcomePanic {
		t.Fatalf("panicky outcome = %q, want panic", r.Outcome)
	}
	out := buf.String()
	for _, want := range []string{"tool panicky panicked", "index out of range [-1]", "goroutine ", "chaos.(*Router)"} {
		if !strings.Contains(out, want) {
			t.Errorf("panic report missing %q:\n%s", want, out)
		}
	}
}

// The audit rejects an invalid routing and a score below the proven
// optimum, and checks no bound when the optimum is unknown.
func TestAudit(t *testing.T) {
	p, opt := prep(t)
	res, err := sabre.New(sabre.Options{Trials: 1, Seed: 3}).RoutePreparedCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	score, err := audit(p, res, family.Swaps, opt)
	if err != nil || score != res.SwapCount {
		t.Fatalf("valid result: score=%d err=%v, want %d and no error", score, err, res.SwapCount)
	}
	bad := *res
	bad.SwapCount++
	if _, err := audit(p, &bad, family.Swaps, opt); err == nil || !strings.Contains(err.Error(), "invalid result") {
		t.Fatalf("corrupted result: err = %v, want invalid result", err)
	}
	if _, err := audit(p, res, family.Swaps, res.SwapCount+1); err == nil || !strings.Contains(err.Error(), "beats the proven optimal") {
		t.Fatalf("result below the claimed optimum: err = %v, want a beats-optimum rejection", err)
	}
	if _, err := audit(p, res, family.Swaps, 0); err != nil {
		t.Fatalf("unknown optimum: err = %v, want no bound checked", err)
	}
}
