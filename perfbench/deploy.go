package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"disco/internal/mediator"
	"disco/internal/router"
	"disco/internal/serving"
)

// replicaOptions are discod's defaults at paper scale: feedback and
// history on, 32 in flight with a 1 s queue timeout, a 256-entry plan
// cache, no result cache, sequential execution, adaptive off.
func replicaOptions(parts int) serving.Options {
	return serving.Options{
		Parts:         parts,
		Feedback:      true,
		MaxInFlight:   32,
		QueueTimeout:  time.Second,
		PlanCacheSize: mediator.DefaultPlanCacheSize,
	}
}

// drainTimeout bounds a server shutdown.
const drainTimeout = 5 * time.Second

// deployment is a running federation on loopback TCP: one discod
// replica, or (routed) one replica per client behind a router.
type deployment struct {
	feds    []*serving.Federation
	addrs   []string // replica addresses
	servers []*serving.ConnServer
	router  *serving.ConnServer // nil unless routed
	addr    string              // what clients dial
	wg      sync.WaitGroup
	errs    chan error
}

// deploy starts the deployment. With a tracer, every handler and
// wrapper is wrapped in the benchmark's timing decorators.
func deploy(parts int, routed bool, replicas int, tr *tracer) (d *deployment, err error) {
	if !routed {
		replicas = 1
	}
	d = &deployment{errs: make(chan error, replicas+1)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	for i := 0; i < replicas; i++ {
		fed, err := serving.NewDemoFederation(replicaOptions(parts))
		if err != nil {
			return d, err
		}
		srv := serving.NewServer(fed, 0)
		cs := srv.ConnServer
		if tr != nil {
			wrappers, err := decorateWrappers(fed, tr)
			if err != nil {
				return d, err
			}
			cs = serving.NewConnServer(&tracedServer{srv: srv, wrappers: wrappers, tr: tr}, 0, fed.Med.Close)
		}
		addr, err := d.serve(cs, tr)
		if err != nil {
			return d, err
		}
		d.feds = append(d.feds, fed)
		d.addrs = append(d.addrs, addr)
		d.servers = append(d.servers, cs)
	}
	d.addr = d.addrs[0]
	if !routed {
		return d, nil
	}
	cfg := router.Config{Partitions: router.DemoPartitions(parts)}
	for _, a := range d.addrs {
		cfg.Replicas = append(cfg.Replicas, router.ReplicaConfig{Addr: a, Capacity: 1})
	}
	rt, err := router.New(cfg)
	if err != nil {
		return d, err
	}
	var h serving.Handler = rt
	if tr != nil {
		h = &tracedRouter{inner: rt, tr: tr}
	}
	d.router = serving.NewConnServer(h, 0, rt.Close)
	d.addr, err = d.serve(d.router, tr)
	return d, err
}

// serve starts cs on a fresh loopback listener and returns its address.
func (d *deployment) serve(cs *serving.ConnServer, tr *tracer) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	if tr != nil {
		ln = tracedListener{Listener: ln, tr: tr}
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if err := cs.Serve(ln); !errors.Is(err, serving.ErrServerClosed) {
			d.errs <- fmt.Errorf("serve %s: %w", addr, err)
		}
	}()
	return addr, nil
}

// close shuts the router down first, then the replicas, and waits for
// every accept loop to return. It reports the first failure.
func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.router != nil {
		keep(d.router.Shutdown(drainTimeout))
	}
	for _, cs := range d.servers {
		keep(cs.Shutdown(drainTimeout))
	}
	d.wg.Wait()
	close(d.errs)
	for err := range d.errs {
		keep(err)
	}
	return first
}

// counters sums the serving counters and virtual clocks of the replicas.
type counters struct {
	stats mediator.Stats
	simMS float64
}

func (d *deployment) counters() counters {
	var c counters
	for _, fed := range d.feds {
		s := fed.Med.Stats()
		c.stats.PlanCacheHits += s.PlanCacheHits
		c.stats.PlanCacheMisses += s.PlanCacheMisses
		c.stats.ResultCacheHits += s.ResultCacheHits
		c.stats.ResultCacheMisses += s.ResultCacheMisses
		c.stats.Reprepares += s.Reprepares
		c.stats.Shed += s.Shed
		c.stats.QueriesServed += s.QueriesServed
		c.stats.QueryErrors += s.QueryErrors
		c.simMS += fed.Med.Clock.Now()
	}
	return c
}

// sub returns the counter growth from before to c.
func (c counters) sub(before counters) counters {
	s, b := c.stats, before.stats
	return counters{
		stats: mediator.Stats{
			PlanCacheHits:     s.PlanCacheHits - b.PlanCacheHits,
			PlanCacheMisses:   s.PlanCacheMisses - b.PlanCacheMisses,
			ResultCacheHits:   s.ResultCacheHits - b.ResultCacheHits,
			ResultCacheMisses: s.ResultCacheMisses - b.ResultCacheMisses,
			Reprepares:        s.Reprepares - b.Reprepares,
			Shed:              s.Shed - b.Shed,
			QueriesServed:     s.QueriesServed - b.QueriesServed,
			QueryErrors:       s.QueryErrors - b.QueryErrors,
		},
		simMS: c.simMS - before.simMS,
	}
}
