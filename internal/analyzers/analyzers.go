// Package analyzers registers the momentslint suite: the analyzers that
// machine-enforce the store's lock discipline, pooled-buffer lifetimes and
// error-envelope invariants. See ARCHITECTURE.md ("Static analysis &
// enforced invariants") for the analyzer ↔ invariant table.
package analyzers

import (
	"repro/internal/analyzers/errenvelope"
	"repro/internal/analyzers/framework"
	"repro/internal/analyzers/poolescape"
	"repro/internal/analyzers/stripelock"
)

// All returns the full suite in deterministic order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		errenvelope.Analyzer,
		poolescape.Analyzer,
		stripelock.Analyzer,
	}
}
