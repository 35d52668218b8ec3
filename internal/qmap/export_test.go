package qmap

import (
	"context"

	"repro/internal/router"
)

// Epochs reports an engine's three epoch counters: per layer, per
// expansion, and the closed set's.
type Epochs [3]int32

// RouteAcrossEpochWrap routes p twice on one engine: a warm-up route with
// a copy of r under the next seed leaves small epoch stamps behind, then every epoch counter
// is set to epoch and r routes p again. The engine is fresh rather than
// taken from the pool, so its stamps are exactly the warm-up's (a wrap
// that forgot to clear them would match them), and it joins the pool
// afterwards like any other. The warm-up uses another seed because a
// warm-up identical to the measured route stamps exactly the entries it
// would look up anyway. The counters after the second route are
// returned with its result.
func RouteAcrossEpochWrap(r *Router, p *router.Prepared, epoch int32) (*router.Result, Epochs, error) {
	ctx := context.Background()
	e := newEngine(p.Device, p.Device.NumQubits())
	defer releaseEngine(e)
	warm := &Router{opts: r.opts, initial: r.initial}
	warm.opts.Seed++
	if _, err := warm.route(ctx, p, e, warm.placement(p)); err != nil {
		return nil, Epochs{}, err
	}
	e.layerEpoch, e.expandEpoch, e.closed.epoch = epoch, epoch, epoch
	res, err := r.route(ctx, p, e, r.placement(p))
	return res, Epochs{e.layerEpoch, e.expandEpoch, e.closed.epoch}, err
}
