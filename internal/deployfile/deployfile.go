// Package deployfile implements the deploy-file format of paper Fig. 9: an
// ant-like XML build description whose dependency-ordered steps perform an
// automatic installation on a target Grid site.
//
// A deploy-file looks like:
//
//	<Build baseDir="/tmp/papers/" defaultTask="Deploy" name="Povray">
//	  <Step name="Init" task="mkdir-p" baseDir="$DEPLOYMENT_DIR" timeout="10">
//	    <Env name="POVRAY_HOME" value="$DEPLOYMENT_DIR/povray/"/>
//	    <Property name="argument" value="$POVRAY_HOME"/>
//	  </Step>
//	  <Step name="Download" depends="Init" task="$GLOBUS_LOCATION/bin/globus-url-copy" ...>
//	    <Property name="source" value="http://..."/>
//	    <Property name="destination" value="file:///$POVRAY_DIR/povray.tgz"/>
//	    <Property name="md5sum" value="..."/>
//	  </Step>
//	  <Step name="Configure" depends="Expand" task="./configure" ...>
//	    <Interact expect="Accept POV-Ray license" send="y"/>
//	  </Step>
//	</Build>
//
// Steps declare dependencies by name; execution is in topological order.
// Environment entries accumulate in declaration order and are substituted
// into task strings and property values, together with the RDM service's
// default variables (DEPLOYMENT_DIR, USER_HOME, GLOBUS_SCRATCH_DIR,
// GLOBUS_LOCATION).
package deployfile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"glare/internal/xmlutil"
)

// KV is one ordered name/value pair.
type KV struct {
	Name  string
	Value string
}

// Interaction is one send/expect pattern scripted by the activity provider.
type Interaction struct {
	Expect string
	Send   string
}

// Step is one build step.
type Step struct {
	Name    string
	Depends []string
	Task    string
	BaseDir string
	Timeout time.Duration
	Envs    []KV
	Props   []KV
	Dialog  []Interaction
}

// Property returns the first property with the given name ("" if absent).
func (s *Step) Property(name string) string {
	for _, p := range s.Props {
		if p.Name == name {
			return p.Value
		}
	}
	return ""
}

// Arguments returns every property named "argument", in order.
func (s *Step) Arguments() []string {
	var out []string
	for _, p := range s.Props {
		if p.Name == "argument" {
			out = append(out, p.Value)
		}
	}
	return out
}

// Build is a parsed deploy-file.
type Build struct {
	Name        string
	BaseDir     string
	DefaultTask string
	Steps       []Step
}

// DefaultStepTimeout bounds steps whose deploy-file declares no timeout
// attribute. Historically an absent timeout meant unbounded, which let a
// hung installer wedge a build worker forever; now every step gets this
// cap unless the deploy-file says otherwise. Process-wide, configurable.
var DefaultStepTimeout = 2 * time.Minute

// Parse reads a deploy-file from its XML tree.
func Parse(root *xmlutil.Node) (*Build, error) {
	if root == nil || root.Name != "Build" {
		return nil, fmt.Errorf("deployfile: root element must be <Build>")
	}
	b := &Build{
		Name:        root.AttrOr("name", ""),
		BaseDir:     root.AttrOr("baseDir", ""),
		DefaultTask: root.AttrOr("defaultTask", ""),
	}
	if b.Name == "" {
		return nil, fmt.Errorf("deployfile: <Build> missing name attribute")
	}
	names := map[string]bool{}
	for _, sn := range root.All("Step") {
		st := Step{
			Name:    sn.AttrOr("name", ""),
			Task:    sn.AttrOr("task", ""),
			BaseDir: sn.AttrOr("baseDir", b.BaseDir),
		}
		if st.Name == "" {
			return nil, fmt.Errorf("deployfile: step missing name")
		}
		if names[st.Name] {
			return nil, fmt.Errorf("deployfile: duplicate step %q", st.Name)
		}
		names[st.Name] = true
		if st.Task == "" {
			return nil, fmt.Errorf("deployfile: step %q missing task", st.Name)
		}
		if dep := sn.AttrOr("depends", ""); dep != "" {
			for _, d := range strings.Split(dep, ",") {
				if d = strings.TrimSpace(d); d != "" {
					st.Depends = append(st.Depends, d)
				}
			}
		}
		if t := sn.AttrOr("timeout", ""); t != "" {
			secs, err := strconv.Atoi(t)
			if err != nil || secs < 0 {
				return nil, fmt.Errorf("deployfile: step %q: bad timeout %q", st.Name, t)
			}
			st.Timeout = time.Duration(secs) * time.Second
		}
		if st.Timeout <= 0 {
			st.Timeout = DefaultStepTimeout
		}
		for _, c := range sn.Children {
			switch c.Name {
			case "Env":
				st.Envs = append(st.Envs, KV{c.AttrOr("name", ""), c.AttrOr("value", "")})
			case "Property":
				st.Props = append(st.Props, KV{c.AttrOr("name", ""), c.AttrOr("value", "")})
			case "Interact":
				st.Dialog = append(st.Dialog, Interaction{
					Expect: c.AttrOr("expect", ""),
					Send:   c.AttrOr("send", ""),
				})
			}
		}
		b.Steps = append(b.Steps, st)
	}
	if len(b.Steps) == 0 {
		return nil, fmt.Errorf("deployfile: build %q has no steps", b.Name)
	}
	for _, st := range b.Steps {
		for _, d := range st.Depends {
			if !names[d] {
				return nil, fmt.Errorf("deployfile: step %q depends on unknown step %q", st.Name, d)
			}
		}
	}
	return b, nil
}

// ParseString parses a deploy-file from XML text.
func ParseString(s string) (*Build, error) {
	n, err := xmlutil.ParseString(s)
	if err != nil {
		return nil, fmt.Errorf("deployfile: %w", err)
	}
	return Parse(n)
}

// Order returns the steps in a deterministic topological order (Kahn's
// algorithm, ties broken by declaration order). It fails on cycles.
func (b *Build) Order() ([]*Step, error) {
	index := make(map[string]int, len(b.Steps))
	indeg := make([]int, len(b.Steps))
	succ := make([][]int, len(b.Steps))
	for i := range b.Steps {
		index[b.Steps[i].Name] = i
	}
	for i := range b.Steps {
		for _, d := range b.Steps[i].Depends {
			j := index[d]
			succ[j] = append(succ[j], i)
			indeg[i]++
		}
	}
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	var out []*Step
	for len(ready) > 0 {
		sort.Ints(ready)
		i := ready[0]
		ready = ready[1:]
		out = append(out, &b.Steps[i])
		for _, j := range succ[i] {
			indeg[j]--
			if indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if len(out) != len(b.Steps) {
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, b.Steps[i].Name)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("deployfile: dependency cycle among steps %v", stuck)
	}
	return out, nil
}

// Command is one fully resolved step ready for execution.
type Command struct {
	Step    *Step
	Cmdline string
	BaseDir string
	Env     map[string]string
	Timeout time.Duration
	Dialog  []Interaction
}

// Resolve flattens the build into executable commands: topological order,
// environment accumulation and $VAR substitution against base (typically
// the RDM default environment).
func (b *Build) Resolve(base map[string]string) ([]Command, error) {
	steps, err := b.Order()
	if err != nil {
		return nil, err
	}
	env := make(map[string]string, len(base)+8)
	for k, v := range base {
		env[k] = v
	}
	lookup := func(k string) string { return env[k] }
	var out []Command
	for _, st := range steps {
		for _, kv := range st.Envs {
			env[kv.Name] = Expand(kv.Value, lookup)
		}
		cmd := Command{
			Step:    st,
			BaseDir: Expand(st.BaseDir, lookup),
			Timeout: st.Timeout,
			Dialog:  st.Dialog,
		}
		// Builds synthesized in code (not via Parse) may leave Timeout
		// zero; cap those here too so no resolved step is unbounded.
		if cmd.Timeout <= 0 {
			cmd.Timeout = DefaultStepTimeout
		}
		task := Expand(st.Task, lookup)
		var args []string
		if src := st.Property("source"); src != "" {
			args = append(args, Expand(src, lookup))
			if dst := st.Property("destination"); dst != "" {
				args = append(args, Expand(dst, lookup))
			}
		}
		for _, a := range st.Arguments() {
			args = append(args, Expand(a, lookup))
		}
		cmd.Cmdline = strings.TrimSpace(task + " " + strings.Join(args, " "))
		cmd.Env = make(map[string]string, len(env))
		for k, v := range env {
			cmd.Env[k] = v
		}
		out = append(out, cmd)
	}
	return out, nil
}

// ChecksumOfStep returns the declared download checksum of a transfer
// step: the sha256sum property when present, else md5sum. The algo names
// the algorithm ("sha256" or "md5"); both are empty when the step declares
// no checksum.
func ChecksumOfStep(s *Step) (algo, sum string) {
	if v := s.Property("sha256sum"); v != "" {
		return "sha256", v
	}
	if v := s.Property("md5sum"); v != "" {
		return "md5", v
	}
	return "", ""
}

// Expand substitutes $VAR and ${VAR} references in s through lookup. A
// bare name runs over letters, digits and underscores; a '$' not followed
// by a name, and an unterminated "${", stay as written. The site shell
// expands its command lines the same way.
func Expand(s string, lookup func(string) string) string {
	var bld strings.Builder
	for i := 0; i < len(s); {
		c := s[i]
		if c != '$' {
			bld.WriteByte(c)
			i++
			continue
		}
		i++
		if i < len(s) && s[i] == '{' {
			end := strings.IndexByte(s[i:], '}')
			if end < 0 {
				bld.WriteString("${")
				i++
				continue
			}
			bld.WriteString(lookup(s[i+1 : i+end]))
			i += end + 1
			continue
		}
		j := i
		for j < len(s) && (s[j] == '_' ||
			s[j] >= 'a' && s[j] <= 'z' || s[j] >= 'A' && s[j] <= 'Z' ||
			s[j] >= '0' && s[j] <= '9') {
			j++
		}
		if j == i {
			bld.WriteByte('$')
			continue
		}
		bld.WriteString(lookup(s[i:j]))
		i = j
	}
	return bld.String()
}
