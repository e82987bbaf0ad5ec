package broker

import (
	"context"
	"time"
)

// prefetcher periodically warms the broker's result cache during idle
// periods (paper §III: brokers "prefetch the next possible queries in idle
// periods", e.g. a news site's refreshed headlines).
type prefetcher struct {
	b        *Broker
	interval time.Duration
	lowWater int
	source   func() [][]byte
	stopped  chan struct{}
	done     chan struct{}
}

func (p *prefetcher) run() {
	defer close(p.done)
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopped:
			return
		case <-ticker.C:
			p.tick()
		}
	}
}

// tick performs one prefetch round if the broker is idle enough.
func (p *prefetcher) tick() {
	p.b.mu.Lock()
	idle := p.b.outstanding < p.lowWater && !p.b.closed
	p.b.mu.Unlock()
	if !idle {
		p.b.m.prefetchSkipped.Inc()
		return
	}
	for _, payload := range p.source() {
		select {
		case <-p.stopped:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), p.interval)
		body, err := p.b.do(ctx, payload)
		cancel()
		if err != nil {
			p.b.m.prefetchErrors.Inc()
			continue
		}
		p.b.results.Put(string(payload), body)
		p.b.m.prefetched.Inc()
	}
}

func (p *prefetcher) stop() {
	close(p.stopped)
	<-p.done
}
