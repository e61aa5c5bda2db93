package spectral

import (
	"sync"

	"diffusionlb/internal/hetero"
)

// lambdaMemoSize is how many (speed vector, options) keys an operator
// remembers λ for: enough for a speed event and its restore, or a recurring
// throttle, to find the vector it returns to.
const lambdaMemoSize = 2

// lambdaMemo is a least-recently-used memo of SecondEigenvalue results,
// keyed by the speed vector's content and the defaulted PowerOptions. It is
// exact: power iteration depends only on the graph, α, the speeds and the
// options, and α never sees speeds, so a key that matches bit for bit has
// the same (λ, signed) pair. Entries hold references to speed vectors,
// which are immutable.
type lambdaMemo struct {
	mu sync.Mutex
	// ent is ordered from most to least recently used; an unused entry has
	// nil speeds.
	ent [lambdaMemoSize]lambdaEntry
}

type lambdaEntry struct {
	speeds         *hetero.Speeds
	opts           PowerOptions
	lambda, signed float64
}

// get returns the result remembered for (speeds, opts) and makes it the
// most recently used entry.
func (m *lambdaMemo) get(speeds *hetero.Speeds, opts PowerOptions) (lambda, signed float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.find(speeds, opts)
	if k < 0 {
		return 0, 0, false
	}
	m.moveToFront(k, m.ent[k])
	return m.ent[0].lambda, m.ent[0].signed, true
}

// put records e as the most recently used entry, evicting the least
// recently used one. A key a concurrent call recorded first is moved to the
// front instead, so the memo never holds a key twice.
func (m *lambdaMemo) put(e lambdaEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := m.find(e.speeds, e.opts)
	if k < 0 {
		k = len(m.ent) - 1
	}
	m.moveToFront(k, e)
}

// entries returns a copy of the entries, for Clone.
func (m *lambdaMemo) entries() [lambdaMemoSize]lambdaEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ent
}

func (m *lambdaMemo) find(speeds *hetero.Speeds, opts PowerOptions) int {
	for k := range m.ent {
		if e := &m.ent[k]; e.speeds != nil && e.opts == opts && e.speeds.Equal(speeds) {
			return k
		}
	}
	return -1
}

// moveToFront drops entry k and puts e first, shifting the more recent
// entries back by one.
func (m *lambdaMemo) moveToFront(k int, e lambdaEntry) {
	copy(m.ent[1:k+1], m.ent[:k])
	m.ent[0] = e
}
