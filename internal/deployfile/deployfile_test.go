package deployfile

import (
	"strings"
	"testing"
	"time"
)

// povrayBuild mirrors the deploy-file of paper Fig. 9.
const povrayBuild = `
<Build baseDir="/tmp/papers/" defaultTask="Deploy" name="Povray">
  <Step name="Init" task="mkdir-p" baseDir="$DEPLOYMENT_DIR" timeout="10">
    <Env name="POVRAY_HOME" value="$DEPLOYMENT_DIR/povray/"/>
    <Env name="POVRAY_DIR" value="/tmp/povray/"/>
    <Property name="argument" value="$POVRAY_HOME"/>
    <Property name="argument" value="$POVRAY_DIR"/>
  </Step>
  <Step name="Download" depends="Init" task="$GLOBUS_LOCATION/bin/globus-url-copy"
        baseDir="$POVRAY_DIR" timeout="20">
    <Property name="source" value="http://www.povray.org/ftp/povlinux-3.6.tgz"/>
    <Property name="destination" value="file:///$POVRAY_DIR/povray.tgz"/>
    <Property name="md5sum" value="abc123"/>
  </Step>
  <Step name="Expand" depends="Download" task="tar xvfz" baseDir="$POVRAY_DIR" timeout="10">
    <Property name="argument" value="$POVRAY_DIR/povray.tgz"/>
  </Step>
  <Step name="Configure" depends="Expand" task="./configure"
        baseDir="$POVRAY_DIR/povray-3.6.1" timeout="60">
    <Property name="argument" value="--prefix=$POVRAY_HOME"/>
    <Interact expect="Accept POV-Ray license" send="y"/>
    <Interact expect="User type" send="personal"/>
    <Interact expect="Install path" send=""/>
  </Step>
  <Step name="Build" depends="Configure" task="make"
        baseDir="$POVRAY_DIR/povray-3.6.1" timeout="200"/>
  <Step name="Deploy" depends="Build" task="make"
        baseDir="$POVRAY_DIR/povray-3.6.1" timeout="60">
    <Property name="argument" value="install"/>
  </Step>
</Build>`

func baseEnv() map[string]string {
	return map[string]string{
		"DEPLOYMENT_DIR":  "/opt/glare/deployments",
		"GLOBUS_LOCATION": "/opt/globus",
	}
}

func TestParseFig9(t *testing.T) {
	b, err := ParseString(povrayBuild)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "Povray" || b.DefaultTask != "Deploy" || len(b.Steps) != 6 {
		t.Fatalf("parsed %+v", b)
	}
	if b.Steps[1].Timeout != 20*time.Second {
		t.Fatalf("timeout = %v", b.Steps[1].Timeout)
	}
	if got := b.Steps[0].Arguments(); len(got) != 2 {
		t.Fatalf("arguments = %v", got)
	}
	if b.Steps[1].Property("md5sum") != "abc123" {
		t.Fatal("md5sum property lost")
	}
	if len(b.Steps[3].Dialog) != 3 {
		t.Fatalf("dialog = %v", b.Steps[3].Dialog)
	}
}

func TestOrderRespectsDependencies(t *testing.T) {
	b, _ := ParseString(povrayBuild)
	steps, err := b.Order()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, s := range steps {
		pos[s.Name] = i
	}
	deps := [][2]string{
		{"Init", "Download"}, {"Download", "Expand"}, {"Expand", "Configure"},
		{"Configure", "Build"}, {"Build", "Deploy"},
	}
	for _, d := range deps {
		if pos[d[0]] >= pos[d[1]] {
			t.Fatalf("%s must precede %s: %v", d[0], d[1], pos)
		}
	}
}

func TestOrderDetectsCycle(t *testing.T) {
	src := `<Build name="c"><Step name="a" depends="b" task="x"/><Step name="b" depends="a" task="y"/></Build>`
	b, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Order(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"not build root":  `<NotBuild/>`,
		"missing name":    `<Build><Step name="a" task="x"/></Build>`,
		"no steps":        `<Build name="b"/>`,
		"step no name":    `<Build name="b"><Step task="x"/></Build>`,
		"step no task":    `<Build name="b"><Step name="a"/></Build>`,
		"duplicate step":  `<Build name="b"><Step name="a" task="x"/><Step name="a" task="y"/></Build>`,
		"unknown depends": `<Build name="b"><Step name="a" task="x" depends="zz"/></Build>`,
		"bad timeout":     `<Build name="b"><Step name="a" task="x" timeout="-3"/></Build>`,
	}
	for label, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("%s: expected parse error", label)
		}
	}
}

func TestResolveSubstitutesEnv(t *testing.T) {
	b, _ := ParseString(povrayBuild)
	cmds, err := b.Resolve(baseEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 6 {
		t.Fatalf("cmds = %d", len(cmds))
	}
	byName := map[string]Command{}
	for _, c := range cmds {
		byName[c.Step.Name] = c
	}
	init := byName["Init"]
	if init.Cmdline != "mkdir-p /opt/glare/deployments/povray/ /tmp/povray/" {
		t.Fatalf("init cmd = %q", init.Cmdline)
	}
	if init.BaseDir != "/opt/glare/deployments" {
		t.Fatalf("init basedir = %q", init.BaseDir)
	}
	dl := byName["Download"]
	if !strings.HasPrefix(dl.Cmdline, "/opt/globus/bin/globus-url-copy http://www.povray.org") {
		t.Fatalf("download cmd = %q", dl.Cmdline)
	}
	if !strings.Contains(dl.Cmdline, "file:////tmp/povray//povray.tgz") &&
		!strings.Contains(dl.Cmdline, "file:///tmp/povray") {
		t.Fatalf("destination not substituted: %q", dl.Cmdline)
	}
	cfg := byName["Configure"]
	if !strings.Contains(cfg.Cmdline, "--prefix=/opt/glare/deployments/povray/") {
		t.Fatalf("configure cmd = %q", cfg.Cmdline)
	}
	if len(cfg.Dialog) != 3 || cfg.Dialog[0].Send != "y" {
		t.Fatalf("dialog = %v", cfg.Dialog)
	}
	// Env accumulates across steps.
	if byName["Deploy"].Env["POVRAY_HOME"] != "/opt/glare/deployments/povray/" {
		t.Fatalf("env = %v", byName["Deploy"].Env)
	}
}

func TestResolveEnvOrderWithinStep(t *testing.T) {
	src := `<Build name="x">
	  <Step name="a" task="echo">
	    <Env name="A" value="1"/>
	    <Env name="B" value="$A/2"/>
	    <Property name="argument" value="$B"/>
	  </Step>
	</Build>`
	b, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := b.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmds[0].Cmdline != "echo 1/2" {
		t.Fatalf("cmdline = %q", cmds[0].Cmdline)
	}
}

func TestExpandBraces(t *testing.T) {
	got := Expand("a${X}b$Yc${missing}", func(k string) string {
		switch k {
		case "X":
			return "1"
		case "Yc":
			return "2"
		}
		return ""
	})
	if got != "a1b2" {
		t.Fatalf("Expand = %q", got)
	}
}

func TestAbsentTimeoutDefaultsToCap(t *testing.T) {
	old := DefaultStepTimeout
	DefaultStepTimeout = 5 * time.Second
	defer func() { DefaultStepTimeout = old }()

	b, err := ParseString(`<Build name="b"><Step name="a" task="x"/></Build>`)
	if err != nil {
		t.Fatal(err)
	}
	if b.Steps[0].Timeout != 5*time.Second {
		t.Fatalf("absent timeout = %v, want the configured cap", b.Steps[0].Timeout)
	}

	// Builds synthesized in code bypass Parse; Resolve applies the cap.
	synth := &Build{Name: "s", Steps: []Step{{Name: "a", Task: "echo"}}}
	cmds, err := synth.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cmds[0].Timeout != 5*time.Second {
		t.Fatalf("resolved timeout = %v, want the configured cap", cmds[0].Timeout)
	}

	// A declared timeout is never overridden.
	b, err = ParseString(`<Build name="b"><Step name="a" task="x" timeout="30"/></Build>`)
	if err != nil {
		t.Fatal(err)
	}
	if b.Steps[0].Timeout != 30*time.Second {
		t.Fatalf("declared timeout = %v", b.Steps[0].Timeout)
	}
}

func TestChecksumOfStepPrefersSHA256(t *testing.T) {
	md5Only := &Step{Props: []KV{{Name: "md5sum", Value: "abc123"}}}
	if algo, sum := ChecksumOfStep(md5Only); algo != "md5" || sum != "abc123" {
		t.Fatalf("md5-only step = %q/%q", algo, sum)
	}
	both := &Step{Props: []KV{
		{Name: "md5sum", Value: "abc123"},
		{Name: "sha256sum", Value: "def456"},
	}}
	if algo, sum := ChecksumOfStep(both); algo != "sha256" || sum != "def456" {
		t.Fatalf("dual-sum step = %q/%q, want sha256 preferred", algo, sum)
	}
	none := &Step{}
	if algo, sum := ChecksumOfStep(none); algo != "" || sum != "" {
		t.Fatalf("sumless step = %q/%q", algo, sum)
	}
}
