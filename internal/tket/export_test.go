package tket

import (
	"context"

	"repro/internal/router"
)

// RouteAcrossEpochWrap routes p twice on one engine: a warm-up route with
// a copy of r under the next seed leaves small epoch stamps behind, then the decision epoch
// is set to epoch and r routes p again. The engine is fresh rather than
// taken from the pool, so its stamps are exactly the warm-up's (a wrap
// that forgot to clear them would match them), and it joins the pool
// afterwards like any other. The warm-up uses another seed because a
// warm-up identical to the measured route stamps exactly the entries it
// would look up anyway. The epoch after the second route is
// returned with its result.
func RouteAcrossEpochWrap(r *Router, p *router.Prepared, epoch int32) (*router.Result, int32, error) {
	ctx := context.Background()
	e := newEngine(p.Device, r.opts.LookaheadSlices)
	defer releaseEngine(e)
	warm := &Router{opts: r.opts, initial: r.initial}
	warm.opts.Seed++
	if _, err := warm.route(ctx, p, e); err != nil {
		return nil, 0, err
	}
	e.epoch = epoch
	res, err := r.route(ctx, p, e)
	return res, e.epoch, err
}
