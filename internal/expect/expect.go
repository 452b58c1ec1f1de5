// Package expect implements the Expect-based virtual terminal GLARE's
// deployment handler uses to automate interactive installations.
//
// The paper: "Deployment Handler is an Expect based virtual terminal used
// to automatically interact with operating systems of different Grid sites
// ... the installation of POVray requires human interaction and prompts for
// license acceptance, user type, and install path, and activity provider
// specifies this interaction dialog in deploy-file in the form of
// send/expect patterns."
//
// The engine drives a site.Process: it matches expected patterns against
// the process's output stream and sends scripted responses.
package expect

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"time"

	"glare/internal/simclock"
	"glare/internal/site"
)

// Step is one send/expect pair: wait for output matching Expect, then send
// Send (if non-empty).
type Step struct {
	// Expect is a substring to wait for; if Regex is true it is compiled
	// as a regular expression instead.
	Expect string
	Regex  bool
	// Send is the line written to the process after the match.
	Send string
	// Timeout bounds the wait; zero uses the engine default.
	Timeout time.Duration
}

// Script is an ordered interaction dialog.
type Script []Step

// Engine runs scripts against processes.
type Engine struct {
	// DefaultTimeout bounds each step when the step has none. This is real
	// time (the process may be doing virtual-clock work, which completes in
	// microseconds of real time).
	DefaultTimeout time.Duration
}

// New creates an engine with a sensible default timeout.
func New() *Engine { return &Engine{DefaultTimeout: 10 * time.Second} }

// MatchError describes a failed expect step.
type MatchError struct {
	Step    Step
	Seen    []string
	Timeout bool
}

// Error implements the error interface.
func (e *MatchError) Error() string {
	if e.Timeout {
		return fmt.Sprintf("expect: timed out waiting for %q (saw %d lines)", e.Step.Expect, len(e.Seen))
	}
	return fmt.Sprintf("expect: process exited before %q matched (saw %d lines)", e.Step.Expect, len(e.Seen))
}

// Run drives the process through the script, then waits for process exit.
// All output seen is returned (matched or not).
func (e *Engine) Run(p *site.Process, script Script) ([]string, error) {
	return e.RunContext(context.Background(), p, script)
}

// RunContext is Run with a kill switch: when ctx is cancelled mid-dialogue
// — whether waiting for a match or draining output from a process that
// never exits — the engine abandons the process immediately instead of
// blocking the worker. The abandoned process is left to its own prompt
// timeouts; the caller gets ctx's error.
func (e *Engine) RunContext(ctx context.Context, p *site.Process, script Script) ([]string, error) {
	var seen []string
	for _, st := range script {
		match, err := e.compileMatcher(st)
		if err != nil {
			return seen, err
		}
		timeout := st.Timeout
		if timeout <= 0 {
			timeout = e.DefaultTimeout
		}
		deadline := time.NewTimer(timeout)
	waitMatch:
		for {
			select {
			case line, ok := <-p.Out():
				if !ok {
					deadline.Stop()
					return seen, &MatchError{Step: st, Seen: seen}
				}
				seen = append(seen, line)
				if match(line) {
					deadline.Stop()
					// An empty Send is a meaningful answer (accept the
					// installer's default), so always respond.
					p.Send(st.Send)
					break waitMatch
				}
			case <-deadline.C:
				return seen, &MatchError{Step: st, Seen: seen, Timeout: true}
			case <-ctx.Done():
				deadline.Stop()
				return seen, fmt.Errorf("expect: dialogue killed: %w", ctx.Err())
			}
		}
	}
	// Drain remaining output until exit.
	for {
		select {
		case line, ok := <-p.Out():
			if !ok {
				code := p.Wait()
				if err := p.Err(); err != nil {
					return seen, fmt.Errorf("expect: process failed: %w", err)
				}
				if code != 0 {
					return seen, fmt.Errorf("expect: process exited with code %d", code)
				}
				return seen, nil
			}
			seen = append(seen, line)
		case <-ctx.Done():
			return seen, fmt.Errorf("expect: dialogue killed: %w", ctx.Err())
		}
	}
}

func (e *Engine) compileMatcher(st Step) (func(string) bool, error) {
	if st.Regex {
		re, err := regexp.Compile(st.Expect)
		if err != nil {
			return nil, fmt.Errorf("expect: bad pattern %q: %w", st.Expect, err)
		}
		return re.MatchString, nil
	}
	needle := st.Expect
	return func(line string) bool { return strings.Contains(line, needle) }, nil
}

// Session is a logged-in virtual terminal on a site: the local shell or a
// glogin connection. Opening it pays the login/automation overhead the
// paper reports as "Expect Overhead" in Table 1.
type Session struct {
	shell  *site.Shell
	engine *Engine
	clock  simclock.Clock
}

// DefaultLoginCost matches Table 1's Expect overhead row (2,100 ms per
// deployment, covering glogin/GSI setup and terminal automation).
const DefaultLoginCost = 2100 * time.Millisecond

// Open logs into a site and returns a session. loginCost 0 uses the
// default; a negative value opens for free (reusing an existing login,
// e.g. when installing a dependency inside an already-open session).
func Open(s *site.Site, clock simclock.Clock, loginCost time.Duration) *Session {
	if clock == nil {
		clock = simclock.Real
	}
	if loginCost == 0 {
		loginCost = DefaultLoginCost
	}
	if loginCost > 0 {
		clock.Sleep(loginCost)
	}
	return &Session{shell: s.NewShell(), engine: New(), clock: clock}
}

// Shell exposes the underlying shell for environment setup.
func (s *Session) Shell() *site.Shell { return s.shell }

// Interact spawns the command and drives it with the script.
func (s *Session) Interact(cmdline string, script Script) ([]string, error) {
	return s.InteractContext(context.Background(), cmdline, script)
}

// InteractContext is Interact with a kill deadline (see RunContext).
func (s *Session) InteractContext(ctx context.Context, cmdline string, script Script) ([]string, error) {
	p := s.shell.Spawn(cmdline)
	return s.engine.RunContext(ctx, p, script)
}

// ExecContext runs a non-interactive command, failing on a nonzero exit;
// ctx carries the kill deadline (see RunContext).
func (s *Session) ExecContext(ctx context.Context, cmdline string) ([]string, error) {
	p := s.shell.Spawn(cmdline)
	return s.engine.RunContext(ctx, p, nil)
}
