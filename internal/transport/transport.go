// Package transport implements the message layer all GLARE and substrate
// services speak: XML request/response envelopes over HTTP or HTTPS on the
// loopback interface.
//
// Every service is addressed WSRF-style as
//
//	http(s)://host:port/wsrf/services/<ServiceName>
//
// and exposes named operations. A request envelope is
//
//	<Envelope><Operation>GetDeployments</Operation><Body>…</Body></Envelope>
//
// and a response is either <Envelope><Body>…</Body></Envelope> or
// <Envelope><Fault>message</Fault></Envelope>. This stands in for the
// paper's SOAP/WSRF stack while keeping real network and (optionally) real
// TLS cost in the measured path.
//
// Requests may additionally carry a trace header element,
//
//	<Trace trace="<correlation-id>" span="<caller-span-id>"/>
//
// injected by Client.CallSpan and extracted by the server, which opens a
// child span in the site's telemetry tracer so one correlation ID follows
// a request across every site it touches. Envelopes in both directions may
// also carry a hybrid-logical-clock stamp,
//
//	<HLC t="<RFC3339Nano instant>" site="<sender site>"/>
//
// injected and merged when an hlc.Clock is attached (Client.SetHLC /
// Server.SetHLC), so any message exchange bounds the two sites' ordering
// divergence however skewed their wall clocks are. A server with telemetry
// attached (SetTelemetry) also records per-service/operation request
// counters and latency histograms, and serves the per-site admin
// endpoints /metrics, /healthz and /tracez next to the service tree.
package transport

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"glare/internal/hlc"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// ServicePrefix is the URL prefix under which services are mounted.
const ServicePrefix = "/wsrf/services/"

// Admin endpoint paths served by a telemetry-enabled server.
const (
	MetricsPath = "/metrics"
	HealthPath  = "/healthz"
	TracesPath  = "/tracez"
)

// Handler processes one operation invocation. The body may be nil for
// operations without arguments; a nil response body is rendered as an empty
// <Body/>.
type Handler func(body *xmlutil.Node) (*xmlutil.Node, error)

// CtxHandler is the fullest handler form: it additionally receives the
// server span opened for the incoming call (nil when the server has no
// telemetry) and the request context, which carries the caller's
// propagated deadline (see the Deadline envelope element) and the HTTP
// request's cancellation. Handlers that forward calls pass both down
// through Client.CallCtx, so child spans on other sites link into the same
// trace and every hop shrinks the remaining budget instead of resetting it.
type CtxHandler func(ctx context.Context, sp *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error)

// Fault is an application-level error returned by a remote service.
type Fault struct {
	Service   string
	Operation string
	Message   string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("fault from %s.%s: %s", f.Service, f.Operation, f.Message)
}

// IsFault reports whether err is (or wraps) a remote Fault.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// Server hosts services on one listener. It is the per-site "container"
// (the GT4 analogue) into which registries and grid services deploy.
type Server struct {
	mu        sync.RWMutex
	services  map[string]map[string]CtxHandler // service -> operation -> handler
	tel       *telemetry.Telemetry
	admission *Admission
	hlc       *hlc.Clock
	listener  net.Listener
	http      *http.Server
	secure    bool
	baseURL   string
	closed    chan struct{}
}

// NewServer creates an unstarted server.
func NewServer() *Server {
	return &Server{
		services: make(map[string]map[string]CtxHandler),
		closed:   make(chan struct{}),
	}
}

// SetTelemetry attaches the site's telemetry bundle: incoming calls are
// measured and traced, and the admin endpoints are served. Call before
// Start (or at least before traffic arrives).
func (s *Server) SetTelemetry(tel *telemetry.Telemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tel = tel
}

// Telemetry returns the attached telemetry bundle (may be nil).
func (s *Server) Telemetry() *telemetry.Telemetry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tel
}

// SetHLC attaches the site's hybrid logical clock: every incoming
// envelope's <HLC> stamp is merged into it (bounding this site's ordering
// divergence from the sender), and every response envelope carries this
// site's stamp back. Call before traffic arrives; nil disables the
// exchange (requests from/to pre-HLC peers still work — the element is
// simply absent).
func (s *Server) SetHLC(h *hlc.Clock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hlc = h
}

// SetAdmission installs the site's admission controller: every incoming
// operation is classified, counted against its class's concurrency
// limit, and possibly queued or shed before the handler runs. nil
// disables admission control (unbounded concurrency). Call before
// traffic arrives.
func (s *Server) SetAdmission(a *Admission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admission = a
}

// Admission returns the installed admission controller (nil when
// admission control is disabled).
func (s *Server) Admission() *Admission {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admission
}

// Register mounts an operation handler on a service. Registering the same
// service/operation twice replaces the handler.
func (s *Server) Register(service, operation string, h Handler) {
	s.RegisterCtx(service, operation, func(_ context.Context, _ *telemetry.Span, body *xmlutil.Node) (*xmlutil.Node, error) {
		return h(body)
	})
}

// RegisterCtx mounts a context-aware operation handler on a service.
func (s *Server) RegisterCtx(service, operation string, h CtxHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.services[service]
	if ops == nil {
		ops = make(map[string]CtxHandler)
		s.services[service] = ops
	}
	ops[operation] = h
}

// RegisterService mounts a whole operation table at once.
func (s *Server) RegisterService(service string, ops map[string]Handler) {
	for op, h := range ops {
		s.Register(service, op, h)
	}
}

// RegisterCtxService mounts a whole context-aware operation table at once.
func (s *Server) RegisterCtxService(service string, ops map[string]CtxHandler) {
	for op, h := range ops {
		s.RegisterCtx(service, op, h)
	}
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port). If tlsConf
// is non-nil the server speaks HTTPS.
func (s *Server) Start(addr string, tlsConf *tls.Config) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.listener = ln
	s.secure = tlsConf != nil
	scheme := "http"
	if s.secure {
		scheme = "https"
	}
	s.baseURL = fmt.Sprintf("%s://%s", scheme, ln.Addr().String())
	s.http = &http.Server{Handler: http.HandlerFunc(s.serveHTTP), TLSConfig: tlsConf}
	srv := s.http
	s.mu.Unlock()
	go func() {
		var serveErr error
		if tlsConf != nil {
			serveErr = srv.ServeTLS(ln, "", "")
		} else {
			serveErr = srv.Serve(ln)
		}
		_ = serveErr // http.ErrServerClosed on shutdown
		close(s.closed)
	}()
	return nil
}

// BaseURL returns e.g. "http://127.0.0.1:45123"; empty before Start.
func (s *Server) BaseURL() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseURL
}

// ServiceURL returns the full address of a mounted service.
func (s *Server) ServiceURL(service string) string {
	return s.BaseURL() + ServicePrefix + service
}

// Secure reports whether the server speaks HTTPS.
func (s *Server) Secure() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.secure
}

// Close shuts the server down and waits for the serve loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	err := srv.Close()
	select {
	case <-s.closed:
	case <-time.After(5 * time.Second):
	}
	return err
}

func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, ServicePrefix) {
		s.serveAdmin(w, r)
		return
	}
	service := strings.TrimPrefix(r.URL.Path, ServicePrefix)
	s.mu.RLock()
	ops := s.services[service]
	tel := s.tel
	adm := s.admission
	hc := s.hlc
	s.mu.RUnlock()
	if ops == nil {
		writeFault(w, http.StatusNotFound, fmt.Sprintf("no such service %q", service))
		return
	}
	env, err := xmlutil.Parse(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		writeFault(w, http.StatusBadRequest, "malformed envelope: "+err.Error())
		return
	}
	opName := env.ChildText("Operation")
	h := ops[opName]
	if h == nil {
		writeFault(w, http.StatusNotFound, fmt.Sprintf("no such operation %q on %q", opName, service))
		return
	}
	// Merge the caller's hybrid-logical-clock stamp before any work: every
	// ordering stamp this request produces must order after everything the
	// caller had seen when it sent the message, regardless of wall-clock
	// skew between the two sites.
	observeHLC(hc, env)
	svcLabels := []telemetry.Label{telemetry.L("service", service), telemetry.L("op", opName)}
	// Overload protection, stage 1: re-derive the caller's deadline from
	// the propagated budget. A request that is already expired on arrival
	// is refused before any queueing or work — the caller has given up,
	// so executing it can only waste the capacity a live request needs.
	ctx := r.Context()
	deadline, hasDeadline := parseDeadline(env, time.Now())
	if hasDeadline {
		if !deadline.After(time.Now()) {
			if tel != nil {
				tel.Counter("glare_server_expired_on_arrival_total", svcLabels...).Inc()
			}
			writeOverloadFault(w, "expired")
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	// Stage 2: admission control. The request is classified, counted
	// against its class's concurrency limit, and possibly queued (shed if
	// the queue overflows or a brownout is in force). Refusals are
	// answered with an overload fault the client maps to a non-retried
	// Unavailable — hammering an overloaded site with retries is how
	// collapse starts.
	if adm != nil {
		release, aerr := adm.Admit(service, opName, deadline)
		if aerr != nil {
			var ov *Overload
			reason := "shed"
			if errors.As(aerr, &ov) {
				reason = ov.Reason
			}
			writeOverloadFault(w, reason)
			return
		}
		defer release()
	}
	var body *xmlutil.Node
	if b := env.First("Body"); b != nil && len(b.Children) > 0 {
		body = b.Children[0]
	}
	// Instrumentation middleware: open a server span linked to the
	// caller's propagated trace context (if any) and measure the call.
	var sp *telemetry.Span
	var start time.Time
	if tel != nil {
		var traceID, parentSpan string
		if tn := env.First("Trace"); tn != nil {
			traceID = tn.AttrOr("trace", "")
			parentSpan = tn.AttrOr("span", "")
		}
		sp = tel.StartRemote("srv:"+service+"."+opName, traceID, parentSpan)
	}
	start = time.Now()
	// Final gate: time queued in admission counts against the budget, so
	// a request whose deadline lapsed while it waited must not execute.
	if hasDeadline && !start.Before(deadline) {
		if tel != nil {
			tel.Counter("glare_server_expired_on_arrival_total", svcLabels...).Inc()
			sp.End(context.DeadlineExceeded)
		}
		writeOverloadFault(w, "expired")
		return
	}
	resp, err := h(ctx, sp, body)
	if tel != nil {
		tel.Counter("glare_rpc_server_requests_total", svcLabels...).Inc()
		tel.Histogram("glare_rpc_server_latency", svcLabels...).Observe(time.Since(start))
		if err != nil {
			tel.Counter("glare_rpc_server_faults_total", svcLabels...).Inc()
		}
		sp.End(err)
	}
	if err != nil {
		// A handler killed by the propagated deadline is an overload
		// outcome, not an application fault: report it as retryable-
		// elsewhere Unavailable so the caller degrades instead of
		// surfacing a spurious hard error.
		if errors.Is(err, context.DeadlineExceeded) {
			writeOverloadFault(w, "expired")
			return
		}
		writeFault(w, http.StatusOK, err.Error())
		return
	}
	out := xmlutil.NewNode("Envelope")
	stampHLC(hc, out)
	b := out.Elem("Body")
	if resp != nil {
		b.Add(resp)
	}
	writeEnvelope(w, http.StatusOK, out)
}

// stampHLC adds this site's hybrid-logical-clock stamp to an envelope;
// observeHLC merges a received envelope's stamp. Both are no-ops without a
// clock or element, so HLC exchange degrades cleanly across versions.
func stampHLC(h *hlc.Clock, env *xmlutil.Node) {
	if h == nil {
		return
	}
	n := env.Elem("HLC")
	n.SetAttr("t", h.Now().Format(time.RFC3339Nano))
	n.SetAttr("site", h.Site())
}

func observeHLC(h *hlc.Clock, env *xmlutil.Node) {
	if h == nil {
		return
	}
	n := env.First("HLC")
	if n == nil {
		return
	}
	if t, err := time.Parse(time.RFC3339Nano, n.AttrOr("t", "")); err == nil {
		h.Observe(n.AttrOr("site", ""), t)
	}
}

// serveAdmin answers the per-site observability endpoints.
func (s *Server) serveAdmin(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	tel := s.tel
	nServices := len(s.services)
	s.mu.RUnlock()
	if tel == nil {
		http.NotFound(w, r)
		return
	}
	switch r.URL.Path {
	case MetricsPath:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = tel.WriteMetrics(w)
	case HealthPath:
		w.Header().Set("Content-Type", "application/json")
		_ = tel.WriteHealth(w, nServices)
	case TracesPath:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = tel.WriteTraces(w, 0)
	default:
		http.NotFound(w, r)
	}
}

// maxPooledEnvelope caps the response buffers kept for reuse, so one large
// answer (a Query over a big registry) cannot pin its buffer in the pool.
const maxPooledEnvelope = 64 << 10

var envelopeBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeEnvelope encodes env into a pooled buffer and sends it with status.
// The buffer is reusable as soon as Write returns: a ResponseWriter, like
// every io.Writer, does not retain what it is given.
func writeEnvelope(w http.ResponseWriter, status int, env *xmlutil.Node) {
	bp := envelopeBufs.Get().(*[]byte)
	buf := env.AppendTo((*bp)[:0])
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	if cap(buf) <= maxPooledEnvelope {
		*bp = buf
		envelopeBufs.Put(bp)
	}
}

func writeFault(w http.ResponseWriter, status int, msg string) {
	out := xmlutil.NewNode("Envelope")
	out.Elem("Fault", msg)
	writeEnvelope(w, status, out)
}

// writeOverloadFault answers an overload refusal: a fault envelope whose
// code="unavailable" attribute tells the client this is a transport-level
// condition (map to Unavailable, don't surface as an application Fault)
// and whose reason attribute ("expired", "shed", "brownout") explains why.
// 503 matches the HTTP semantics but clients key off the envelope.
func writeOverloadFault(w http.ResponseWriter, reason string) {
	out := xmlutil.NewNode("Envelope")
	fn := out.Elem("Fault", "overloaded: "+reason)
	fn.SetAttr("code", "unavailable")
	fn.SetAttr("reason", reason)
	writeEnvelope(w, http.StatusServiceUnavailable, out)
}

// DefaultCallTimeout bounds one Call when the client was not configured
// otherwise, so a hung site cannot stall discovery forever. On-demand
// deployments held open across a call can legitimately take seconds;
// callers driving those paths in real time should raise the timeout.
const DefaultCallTimeout = 10 * time.Second

// Client invokes operations on remote services. The zero value is not
// usable; construct with NewClient.
//
// A client optionally layers fault tolerance over its calls: a RetryPolicy
// re-issues calls that failed at the transport level (never application
// Faults), a RetryBudget bounds the extra traffic those retries generate,
// and per-destination circuit breakers (SetBreaker) stop hammering a site
// that keeps failing, re-probing it after a cooldown. All three are off by
// default and configured at assembly time.
type Client struct {
	http    *http.Client
	timeout time.Duration
	tel     *telemetry.Telemetry
	hlc     *hlc.Clock

	retry    RetryPolicy
	budget   *RetryBudget
	breakers *breakerSet

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewClient builds a client with the default per-request timeout. tlsConf
// may be nil for plain HTTP; when non-nil it is used for HTTPS addresses.
func NewClient(tlsConf *tls.Config) *Client {
	return NewClientTimeout(tlsConf, DefaultCallTimeout)
}

// NewClientTimeout builds a client with an explicit per-request timeout;
// timeout <= 0 selects DefaultCallTimeout.
func NewClientTimeout(tlsConf *tls.Config, timeout time.Duration) *Client {
	tr := &http.Transport{
		TLSClientConfig:     tlsConf,
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     30 * time.Second,
	}
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	return &Client{http: &http.Client{Transport: tr}, timeout: timeout}
}

// SetTelemetry attaches a telemetry bundle: outgoing calls are counted
// and timed into its registry. Not safe to call concurrently with Call.
func (c *Client) SetTelemetry(tel *telemetry.Telemetry) { c.tel = tel }

// SetHLC attaches the site's hybrid logical clock: every outgoing
// envelope carries its stamp, and every response's stamp is merged back —
// so any message exchange, in either direction, bounds the two sites'
// ordering divergence. Not safe to call concurrently with Call.
func (c *Client) SetHLC(h *hlc.Clock) { c.hlc = h }

// SetRetryPolicy enables transport-level retries. Only Unavailable errors
// are ever retried; a Fault means the site answered and is final. Not
// safe to call concurrently with Call.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.retry = p
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	c.rng = rand.New(rand.NewSource(seed))
}

// SetRetryBudget bounds the global retry volume; nil restores the
// unlimited default. Not safe to call concurrently with Call.
func (c *Client) SetRetryBudget(b *RetryBudget) { c.budget = b }

// SetBreaker enables per-destination circuit breakers. Not safe to call
// concurrently with Call.
func (c *Client) SetBreaker(cfg BreakerConfig) { c.breakers = newBreakerSet(cfg) }

// BreakerState reports the breaker position for the site hosting address
// (BreakerClosed when breakers are disabled or the site was never called).
func (c *Client) BreakerState(address string) BreakerState {
	if c.breakers == nil {
		return BreakerClosed
	}
	return c.breakers.get(destOf(address)).current()
}

// OpenBreakers counts destinations whose breaker is currently open —
// the health digest's "how many peers am I refusing to call" figure.
func (c *Client) OpenBreakers() int {
	if c.breakers == nil {
		return 0
	}
	return c.breakers.countOpen()
}

// WrapTransport wraps the client's underlying HTTP round-tripper, e.g.
// with a faultinject.Injector for chaos testing. Call during assembly,
// before issuing requests.
func (c *Client) WrapTransport(wrap func(http.RoundTripper) http.RoundTripper) {
	c.http.Transport = wrap(c.http.Transport)
}

// Call invokes operation on the service at address (a full service URL as
// returned by Server.ServiceURL) with an optional body node.
func (c *Client) Call(address, operation string, body *xmlutil.Node) (*xmlutil.Node, error) {
	return c.CallSpan(nil, address, operation, body)
}

// CallSpan is Call with trace propagation: when sp is non-nil its trace
// context rides in the request envelope's Trace header, so the server's
// span (and everything below it) joins the caller's trace.
func (c *Client) CallSpan(sp *telemetry.Span, address, operation string, body *xmlutil.Node) (*xmlutil.Node, error) {
	return c.call(context.Background(), sp, address, operation, body, c.timeout, true)
}

// CallCtx is CallSpan with deadline propagation: when ctx carries a
// deadline, the remaining budget is stamped into the request envelope so
// the server (and every further hop it makes) works against the caller's
// clock instead of its own. Retries re-stamp the shrunk remainder, stop
// as soon as the budget cannot cover another backoff, and never start an
// attempt after the deadline. ctx cancellation aborts in-flight attempts.
func (c *Client) CallCtx(ctx context.Context, sp *telemetry.Span, address, operation string, body *xmlutil.Node) (*xmlutil.Node, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.call(ctx, sp, address, operation, body, c.timeout, true)
}

// Probe issues a single-attempt call under its own (typically short)
// timeout, bypassing the retry policy but not the circuit breaker: an
// open breaker fails the probe immediately. Liveness checks use this so
// (a) failure detection is not slowed by the regular per-request timeout
// and (b) a site the client already knows is dead is not re-probed by
// every subsystem. The probe timeout doubles as the propagated budget, so
// the probed site sheds the request rather than answering into the void
// after the prober has moved on.
func (c *Client) Probe(address, operation string, body *xmlutil.Node, timeout time.Duration) (*xmlutil.Node, error) {
	if timeout <= 0 {
		timeout = c.timeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.call(ctx, nil, address, operation, body, timeout, false)
}

func (c *Client) call(ctx context.Context, sp *telemetry.Span, address, operation string, body *xmlutil.Node, timeout time.Duration, retryable bool) (*xmlutil.Node, error) {
	env := xmlutil.NewNode("Envelope")
	env.Elem("Operation", operation)
	if traceID, spanID := sp.Context(); traceID != "" {
		tn := env.Elem("Trace")
		tn.SetAttr("trace", traceID)
		tn.SetAttr("span", spanID)
	}
	stampHLC(c.hlc, env)
	b := env.Elem("Body")
	if body != nil {
		b.Add(body)
	}
	var start time.Time
	if c.tel != nil {
		start = time.Now()
	}
	out, err := c.exchange(ctx, address, operation, env, timeout, retryable)
	if c.tel != nil {
		labels := []telemetry.Label{telemetry.L("op", operation)}
		c.tel.Counter("glare_rpc_client_requests_total", labels...).Inc()
		c.tel.Histogram("glare_rpc_client_latency", labels...).Observe(time.Since(start))
		if err != nil {
			c.tel.Counter("glare_rpc_client_errors_total", labels...).Inc()
		}
	}
	if err != nil {
		return nil, err
	}
	observeHLC(c.hlc, out)
	if f := out.First("Fault"); f != nil {
		// An overload refusal (code="unavailable") is the site protecting
		// itself, not an application error: surface it as Unavailable so
		// resolution falls back to caches/other peers — but it is never
		// retried against the same site (see exchange), because retrying
		// into an admission controller is just more flood.
		if f.AttrOr("code", "") == "unavailable" {
			reason := f.AttrOr("reason", "overload")
			if c.tel != nil {
				c.tel.Counter("glare_transport_server_rejects_total",
					telemetry.L("op", operation), telemetry.L("reason", reason)).Inc()
			}
			return nil, &Unavailable{Address: address, Operation: operation, Reason: "server-" + reason}
		}
		return nil, &Fault{Service: serviceOf(address), Operation: operation, Message: f.Text}
	}
	if b := out.First("Body"); b != nil && len(b.Children) > 0 {
		return b.Children[0], nil
	}
	return nil, nil
}

// exchange runs the attempt loop for one logical call: breaker admission,
// deadline accounting, the POST itself, failure classification, and
// backoff between retries. Errors escaping here are always *Unavailable;
// Faults surface later from the parsed envelope (and count as transport
// successes — the site is up).
//
// Ordering inside the loop matters for the fault-tolerance economics:
// the breaker is consulted before the retry budget, so an open breaker's
// local refusal never burns a budget token (it isn't network traffic);
// and the remaining deadline is checked before every withdrawal and every
// backoff sleep, so a call abandons retrying — with its tokens intact —
// as soon as the budget cannot cover another attempt.
func (c *Client) exchange(ctx context.Context, address, operation string, env *xmlutil.Node, timeout time.Duration, retryable bool) (*xmlutil.Node, error) {
	maxAttempts := 1
	if retryable && c.retry.MaxAttempts > 1 {
		maxAttempts = c.retry.MaxAttempts
	}
	dest := destOf(address)
	deadline, hasDeadline := ctx.Deadline()
	var lastErr error
	for attempt := 1; ; attempt++ {
		var br *breaker
		probe := false
		if c.breakers != nil {
			br = c.breakers.get(dest)
			ok, p := br.admit()
			if !ok {
				c.tel.Counter("glare_transport_breaker_rejected_total", telemetry.L("dest", dest)).Inc()
				return nil, &Unavailable{Address: address, Operation: operation, Reason: "breaker-open", Err: lastErr}
			}
			probe = p
		}
		// The retry token is withdrawn only once an attempt is actually
		// going to hit the wire — after breaker admission, so a local
		// refusal costs nothing.
		if attempt > 1 {
			if !c.budget.Withdraw() {
				c.tel.Counter("glare_transport_retry_budget_exhausted_total").Inc()
				c.tel.Counter("glare_transport_unavailable_total", telemetry.L("op", operation)).Inc()
				return nil, &Unavailable{Address: address, Operation: operation, Reason: "retry-budget", Err: lastErr}
			}
			c.tel.Counter("glare_transport_retries_total", telemetry.L("op", operation)).Inc()
		}
		attemptTimeout := timeout
		if hasDeadline {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				c.tel.Counter("glare_transport_deadline_expired_total", telemetry.L("op", operation)).Inc()
				return nil, &Unavailable{Address: address, Operation: operation, Reason: "deadline", Err: lastErr}
			}
			stampDeadline(env, remaining)
			if attemptTimeout <= 0 || remaining < attemptTimeout {
				attemptTimeout = remaining
			}
		}
		out, err := c.post(ctx, address, env, attemptTimeout)
		if err == nil {
			if br != nil {
				br.onSuccess(probe)
				c.tel.Gauge("glare_transport_breaker_state", telemetry.L("dest", dest)).Set(int64(br.current()))
			}
			c.budget.Deposit()
			return out, nil
		}
		lastErr = err
		if br != nil {
			if br.onFailure(probe) {
				c.tel.Counter("glare_transport_breaker_open_total", telemetry.L("dest", dest)).Inc()
			}
			c.tel.Gauge("glare_transport_breaker_state", telemetry.L("dest", dest)).Set(int64(br.current()))
		}
		if attempt >= maxAttempts {
			c.tel.Counter("glare_transport_unavailable_total", telemetry.L("op", operation)).Inc()
			return nil, &Unavailable{Address: address, Operation: operation, Reason: unavailableReason(err), Err: err}
		}
		delay := c.backoff(attempt)
		if hasDeadline && time.Until(deadline) <= delay {
			// The budget cannot cover the backoff, let alone another
			// attempt: abandon now, with the remaining tokens intact.
			c.tel.Counter("glare_transport_deadline_abandoned_total", telemetry.L("op", operation)).Inc()
			c.tel.Counter("glare_transport_unavailable_total", telemetry.L("op", operation)).Inc()
			return nil, &Unavailable{Address: address, Operation: operation, Reason: "deadline", Err: err}
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			c.tel.Counter("glare_transport_unavailable_total", telemetry.L("op", operation)).Inc()
			return nil, &Unavailable{Address: address, Operation: operation, Reason: "deadline", Err: ctx.Err()}
		}
	}
}

// backoff computes the jittered delay after the attempt-th failed try.
func (c *Client) backoff(attempt int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.retry.Delay(attempt, c.rng)
}

// post sends one envelope under the given timeout and parses the response
// envelope. ctx bounds the attempt in addition to the timeout, so a
// cancelled caller aborts the request in flight.
func (c *Client) post(ctx context.Context, address string, env *xmlutil.Node, timeout time.Duration) (*xmlutil.Node, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The body is encoded afresh for every attempt and never pooled: the
	// HTTP client may still be reading it after Do returns.
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, address,
		bytes.NewReader(env.AppendTo(nil)))
	if err != nil {
		return nil, fmt.Errorf("transport: call %s: %w", address, err)
	}
	req.Header.Set("Content-Type", "application/xml")
	operation := env.ChildText("Operation")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("transport: call %s %s: %w", address, operation, err)
	}
	defer resp.Body.Close()
	out, err := xmlutil.Parse(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("transport: call %s %s: bad response: %w", address, operation, err)
	}
	return out, nil
}

// Get fetches a plain (non-envelope) resource — the admin endpoints a
// Server exposes beside its services (/metrics, /healthz, /tracez) —
// using the client's TLS configuration and per-request timeout.
func (c *Client) Get(url string) (string, error) {
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", fmt.Errorf("transport: get %s: %w", url, err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("transport: get %s: %w", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("transport: get %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("transport: get %s: %s", url, resp.Status)
	}
	return string(data), nil
}

// CloseIdle releases pooled connections.
func (c *Client) CloseIdle() { c.http.CloseIdleConnections() }

func serviceOf(address string) string {
	if i := strings.LastIndex(address, ServicePrefix); i >= 0 {
		return address[i+len(ServicePrefix):]
	}
	return address
}
