package site

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"glare/internal/deployfile"
)

// Shell is an interactive command interpreter bound to one site. It is the
// thing glogin/local-shell sessions provide in the paper: the deployment
// handler logs in and drives installations through it.
type Shell struct {
	site *Site
	cwd  string
	env  map[string]string

	// AutoAnswer makes interactive prompts answer themselves with the
	// installer's canned answers — the equivalent of the paper's
	// "create user-defined deployment script" batch path used by the
	// JavaCoG method, where no virtual terminal is attached.
	AutoAnswer bool

	// PromptTimeout bounds how long an interactive installer waits for
	// input before aborting. Real time, independent of the virtual clock.
	PromptTimeout time.Duration
}

// transferRate is the virtual-time cost model for local file operations.
const unpackBytesPerMS = 256 << 10 // 256 KiB of archive handled per virtual ms

// Setenv sets a shell environment variable.
func (sh *Shell) Setenv(key, value string) { sh.env[key] = value }

// Getenv reads a shell environment variable.
func (sh *Shell) Getenv(key string) string { return sh.env[key] }

// Chdir changes directory; the directory must exist.
func (sh *Shell) Chdir(dir string) error {
	d := sh.abs(sh.expand(dir))
	if !sh.site.FS.IsDir(d) {
		return fmt.Errorf("cd: no such directory: %s", d)
	}
	sh.cwd = d
	return nil
}

// expand substitutes $VAR and ${VAR} references from the shell env.
func (sh *Shell) expand(s string) string {
	return deployfile.Expand(s, func(k string) string { return sh.env[k] })
}

func (sh *Shell) abs(p string) string {
	if strings.HasPrefix(p, "/") {
		return clean(p)
	}
	return clean(path.Join(sh.cwd, p))
}

// Spawn starts a command; interactive commands emit prompts on the
// process's output and await answers on its input.
func (sh *Shell) Spawn(cmdline string) *Process {
	p := newProcess(cmdline)
	go sh.interpret(p, cmdline)
	return p
}

// Run executes a command to completion with prompts auto-answered,
// returning its output lines and exit code. This is the batch path.
func (sh *Shell) Run(cmdline string) ([]string, int, error) {
	saved := sh.AutoAnswer
	sh.AutoAnswer = true
	p := sh.Spawn(cmdline)
	out := p.DrainOutput()
	code := p.Wait()
	sh.AutoAnswer = saved
	return out, code, p.Err()
}

func (sh *Shell) interpret(p *Process, cmdline string) {
	fields := strings.Fields(sh.expand(cmdline))
	if len(fields) == 0 {
		p.finish(0, nil)
		return
	}
	cmd, args := fields[0], fields[1:]
	var err error
	switch {
	case cmd == "mkdir-p" || (cmd == "mkdir" && len(args) > 0 && args[0] == "-p"):
		err = sh.cmdMkdir(p, args)
	case cmd == "globus-url-copy" || strings.HasSuffix(cmd, "/globus-url-copy"):
		err = sh.cmdCopy(p, args)
	case cmd == "tar":
		err = sh.cmdTar(p, args)
	case cmd == "./configure" || strings.HasSuffix(cmd, "/configure"):
		err = sh.cmdConfigure(p, cmd, args)
	case cmd == "sh" && len(args) > 0 && strings.Contains(args[0], "install"):
		err = sh.cmdInstallScript(p, args[0], args[1:])
	case strings.Contains(cmd, "install.sh"):
		err = sh.cmdInstallScript(p, cmd, args)
	case cmd == "make":
		err = sh.cmdMake(p, args)
	case cmd == "ant":
		err = sh.cmdAnt(p, args)
	case cmd == "echo":
		p.emit("%s", strings.Join(args, " "))
	case cmd == "true" || cmd == ":":
		// no-op
	case cmd == "rm" && len(args) >= 2 && args[0] == "-rf":
		for _, a := range args[1:] {
			sh.site.FS.Remove(sh.abs(a))
		}
	case cmd == "test" && len(args) == 2 && args[0] == "-e":
		if !sh.site.FS.Exists(sh.abs(args[1])) {
			err = fmt.Errorf("test: %s: not found", args[1])
		}
	case cmd == "ls":
		dir := sh.cwd
		if len(args) > 0 {
			dir = sh.abs(args[0])
		}
		for _, f := range sh.site.FS.List(dir) {
			p.emit("%s", path.Base(f.Path))
		}
	default:
		err = sh.cmdExec(p, cmd, args)
	}
	if err != nil {
		p.emit("error: %v", err)
		p.finish(1, err)
		return
	}
	p.finish(0, nil)
}

func (sh *Shell) cmdMkdir(p *Process, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("mkdir-p: missing directory")
	}
	for _, a := range args {
		if a == "-p" {
			continue
		}
		sh.site.FS.Mkdir(sh.abs(a))
	}
	return nil
}

// cmdCopy implements globus-url-copy <source> <destination>.
func (sh *Shell) cmdCopy(p *Process, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("globus-url-copy: need source and destination")
	}
	src, dst := args[0], args[1]
	dstPath := strings.TrimPrefix(dst, "file://")
	dstPath = sh.abs(dstPath)
	if strings.HasPrefix(src, "file://") {
		srcPath := sh.abs(strings.TrimPrefix(src, "file://"))
		e, err := sh.site.FS.MustStat(srcPath)
		if err != nil {
			return err
		}
		sh.site.FS.Write(dstPath, e.Kind, e.Size, e.MD5, e.Artifact)
		sh.site.Clock.Sleep(time.Duration(e.Size/unpackBytesPerMS) * time.Millisecond)
		return nil
	}
	if sh.site.Transfer == nil {
		return fmt.Errorf("globus-url-copy: no transfer service attached")
	}
	if err := sh.site.Transfer(src, dstPath); err != nil {
		return fmt.Errorf("globus-url-copy: %w", err)
	}
	p.emit("copied %s -> %s", src, dstPath)
	return nil
}

// cmdTar implements tar xvfz <archive>: expand the artifact source tree.
func (sh *Shell) cmdTar(p *Process, args []string) error {
	if len(args) < 2 || !strings.Contains(args[0], "x") {
		return fmt.Errorf("tar: only extraction (x...) supported")
	}
	arch := sh.abs(args[1])
	e, err := sh.site.FS.MustStat(arch)
	if err != nil {
		return err
	}
	if e.Artifact == "" {
		return fmt.Errorf("tar: %s: not a recognized archive", arch)
	}
	a, ok := sh.site.Repo.ByName(e.Artifact)
	if !ok {
		return fmt.Errorf("tar: unknown artifact %q", e.Artifact)
	}
	dest := path.Join(path.Dir(arch), a.UnpackDir)
	sh.site.FS.Mkdir(dest)
	for _, t := range a.SourceTree {
		kind := KindFile
		if t.Executable {
			kind = KindExecutable
		}
		sh.site.FS.Write(path.Join(dest, t.RelPath), kind, t.Size, "", a.Name)
	}
	sh.site.recordUnpack(dest, a)
	sh.site.Clock.Sleep(time.Duration(a.SizeBytes/int64(unpackBytesPerMS)) * time.Millisecond)
	p.emit("extracted %s into %s", path.Base(arch), dest)
	return nil
}

// runDialog plays an installer's interactive prompts.
func (sh *Shell) runDialog(p *Process, a *Artifact) error {
	timeout := sh.PromptTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	for _, d := range a.ConfigureDialog {
		var ans string
		if sh.AutoAnswer {
			p.emit("%s", d.Prompt)
			ans = d.Answer
		} else {
			got, err := p.prompt(d.Prompt, timeout)
			if err != nil {
				return err
			}
			ans = got
		}
		if d.Answer != "" && ans != d.Answer {
			return fmt.Errorf("installer aborted: answer %q rejected for %q", ans, d.Prompt)
		}
	}
	return nil
}

// cmdConfigure implements ./configure [--prefix=DIR].
func (sh *Shell) cmdConfigure(p *Process, cmd string, args []string) error {
	dir := sh.cwd
	if strings.Contains(cmd, "/") && cmd != "./configure" {
		dir = path.Dir(sh.abs(cmd))
	}
	a, srcDir, ok := sh.site.artifactAt(dir)
	if !ok {
		return fmt.Errorf("configure: no sources in %s", dir)
	}
	prefix := sh.defaultPrefix(a)
	for _, arg := range args {
		if v, found := strings.CutPrefix(arg, "--prefix="); found {
			prefix = sh.abs(v)
		}
	}
	p.emit("configuring %s %s ...", a.Name, a.Version)
	if err := sh.runDialog(p, a); err != nil {
		return err
	}
	sh.site.Clock.Sleep(a.ConfigureCost)
	sh.site.setPrefix(srcDir, prefix)
	p.emit("configured %s with prefix %s", a.Name, prefix)
	return nil
}

// cmdInstallScript handles self-installing archives (e.g. the JDK).
func (sh *Shell) cmdInstallScript(p *Process, script string, args []string) error {
	dir := path.Dir(sh.abs(script))
	a, srcDir, ok := sh.site.artifactAt(dir)
	if !ok {
		return fmt.Errorf("%s: no artifact sources found", script)
	}
	prefix := sh.defaultPrefix(a)
	if len(args) > 0 {
		prefix = sh.abs(args[0])
	}
	if err := sh.runDialog(p, a); err != nil {
		return err
	}
	sh.site.Clock.Sleep(a.ConfigureCost)
	sh.site.setPrefix(srcDir, prefix)
	return sh.install(p, a, prefix)
}

// cmdMake implements make and make install.
func (sh *Shell) cmdMake(p *Process, args []string) error {
	a, srcDir, ok := sh.site.artifactAt(sh.cwd)
	if !ok {
		return fmt.Errorf("make: no sources in %s", sh.cwd)
	}
	target := ""
	if len(args) > 0 {
		target = args[0]
	}
	switch target {
	case "":
		if len(a.ConfigureDialog) > 0 && !sh.site.isConfigured(srcDir) {
			return fmt.Errorf("make: %s is not configured", a.Name)
		}
		sh.site.Clock.Sleep(a.BuildCost)
		p.emit("built %s", a.Name)
		return nil
	case "install":
		prefix, ok := sh.site.prefixOf(srcDir)
		if !ok {
			prefix = sh.defaultPrefix(a)
		}
		return sh.install(p, a, prefix)
	default:
		return fmt.Errorf("make: unknown target %q", target)
	}
}

// cmdAnt implements ant [task]: requires an Ant deployment on the site and
// a build.xml in the current sources; builds and installs in one pass.
func (sh *Shell) cmdAnt(p *Process, args []string) error {
	if !sh.hasBinary("ant") {
		return fmt.Errorf("ant: command not found")
	}
	if !sh.hasBinary("java") {
		return fmt.Errorf("ant: JAVA_HOME not set and no java on site")
	}
	a, srcDir, ok := sh.site.artifactAt(sh.cwd)
	if !ok {
		return fmt.Errorf("ant: no sources in %s", sh.cwd)
	}
	if !sh.site.FS.Exists(path.Join(srcDir, "build.xml")) {
		return fmt.Errorf("ant: no build.xml in %s", srcDir)
	}
	sh.site.Clock.Sleep(a.BuildCost)
	prefix, ok := sh.site.prefixOf(srcDir)
	if !ok {
		prefix = sh.defaultPrefix(a)
	}
	p.emit("ant: built %s", a.Name)
	return sh.install(p, a, prefix)
}

// cmdExec runs an installed executable (by absolute path or bare name
// resolved against installed bin directories). Running it advances the
// clock a token amount; real application workloads live in workload.
func (sh *Shell) cmdExec(p *Process, cmd string, args []string) error {
	target := sh.abs(cmd)
	e := sh.site.FS.Stat(target)
	if e == nil && !strings.Contains(cmd, "/") {
		if found := sh.lookupBinary(cmd); found != "" {
			e = sh.site.FS.Stat(found)
		}
	}
	if e == nil {
		return fmt.Errorf("%s: command not found", cmd)
	}
	if e.Kind != KindExecutable {
		return fmt.Errorf("%s: permission denied", cmd)
	}
	sh.site.Clock.Sleep(25 * time.Millisecond)
	p.emit("%s: ok (%d args)", path.Base(e.Path), len(args))
	return nil
}

// install materializes an artifact's install tree under prefix and records
// exposed services in the site container.
func (sh *Shell) install(p *Process, a *Artifact, prefix string) error {
	sh.site.Clock.Sleep(a.InstallCost)
	sh.site.FS.Mkdir(prefix)
	for _, t := range a.InstallTree {
		kind := KindFile
		if t.Executable {
			kind = KindExecutable
		}
		sh.site.FS.Write(path.Join(prefix, t.RelPath), kind, t.Size, "", a.Name)
	}
	for _, svc := range a.Services {
		sh.site.DeployService(svc, prefix)
	}
	p.emit("installed %s %s into %s", a.Name, a.Version, prefix)
	return nil
}

func (sh *Shell) defaultPrefix(a *Artifact) string {
	base := sh.env["DEPLOYMENT_DIR"]
	if base == "" {
		base = "/opt/glare/deployments"
	}
	return path.Join(base, strings.ToLower(a.Name))
}

// hasBinary reports whether some installed bin/<name> executable exists.
func (sh *Shell) hasBinary(name string) bool { return sh.lookupBinary(name) != "" }

// lookupBinary finds an installed executable by base name.
func (sh *Shell) lookupBinary(name string) string {
	matches := sh.site.FS.Executables("/")
	sort.Slice(matches, func(i, j int) bool { return matches[i].Path < matches[j].Path })
	for _, f := range matches {
		if path.Base(f.Path) == name {
			return f.Path
		}
	}
	return ""
}
