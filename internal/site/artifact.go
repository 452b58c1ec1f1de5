package site

import (
	"crypto/md5"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"
)

// Dialog is one prompt/expected-answer pair of an interactive installer.
// The paper's POVray install "prompts for license acceptance, user type,
// and install path"; the activity provider scripts these as send/expect
// patterns in the deploy-file.
type Dialog struct {
	Prompt string // what the installer prints, e.g. "Accept license? [y/n]"
	Answer string // the accepted answer, e.g. "y"
}

// TreeEntry describes one file created when an artifact's archive is
// expanded or its install step runs.
type TreeEntry struct {
	RelPath    string
	Executable bool
	Size       int64
}

// Artifact is one piece of installable software in the simulated universe:
// a downloadable archive plus its build/installation profile.
type Artifact struct {
	Name      string
	Version   string
	URL       string // canonical download URL (served by GridFTP)
	SizeBytes int64  // archive size; drives transfer cost
	UnpackDir string // directory the archive expands into

	// SourceTree is materialized on tar extraction.
	SourceTree []TreeEntry
	// InstallTree is materialized into the deployment dir on install.
	InstallTree []TreeEntry

	// ConfigureDialog holds the interactive prompts of ./configure or the
	// installer; empty means non-interactive.
	ConfigureDialog []Dialog

	// Virtual-time costs of each phase.
	ConfigureCost time.Duration
	BuildCost     time.Duration
	InstallCost   time.Duration

	// Services lists web/Grid service deployments exposed after install
	// (relative names, e.g. "WS-JPOVray").
	Services []string
}

// MD5 returns the artifact archive's content fingerprint.
func (a *Artifact) MD5() string {
	sum := md5.Sum([]byte(a.Name + "@" + a.Version + "#" + a.URL))
	return fmt.Sprintf("%x", sum)
}

// SHA256 returns the archive's sha256 content fingerprint, for deploy-files
// that declare a sha256sum step property instead of md5sum.
func (a *Artifact) SHA256() string {
	sum := sha256.Sum256([]byte(a.Name + "@" + a.Version + "#" + a.URL))
	return fmt.Sprintf("%x", sum)
}

// Checksum returns the fingerprint for the named algorithm ("md5" or
// "sha256"; empty defaults to md5). Unknown algorithms return "".
func (a *Artifact) Checksum(algo string) string {
	switch algo {
	case "", "md5":
		return a.MD5()
	case "sha256":
		return a.SHA256()
	}
	return ""
}

// Repo is the software universe: the set of artifacts reachable by URL.
// One Repo is shared by all sites of a VO; GridFTP transfers consult it
// for sizes and fingerprints.
type Repo struct {
	mu    sync.RWMutex
	byURL map[string]*Artifact
	byNam map[string]*Artifact
}

// NewRepo creates an empty software universe.
func NewRepo() *Repo {
	return &Repo{byURL: make(map[string]*Artifact), byNam: make(map[string]*Artifact)}
}

// Add registers an artifact; later adds with the same URL replace.
func (r *Repo) Add(a *Artifact) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byURL[a.URL] = a
	r.byNam[a.Name] = a
}

// ByURL resolves an artifact by download URL.
func (r *Repo) ByURL(url string) (*Artifact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.byURL[url]
	return a, ok
}

// ByName resolves an artifact by name.
func (r *Repo) ByName(name string) (*Artifact, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.byNam[name]
	return a, ok
}

// Names lists registered artifact names.
func (r *Repo) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byNam))
	for n := range r.byNam {
		out = append(out, n)
	}
	return out
}

// StandardUniverse builds the artifact set used across examples and
// experiments: the Section-2 imaging stack (POVray/JPOVray with Java and
// Ant prerequisites) and the three evaluation applications (Wien2k,
// Invmod, Counter). Costs are calibrated so the Expect deployment path
// lands near Table 1's installation rows.
func StandardUniverse() *Repo {
	r := NewRepo()
	r.Add(&Artifact{
		Name: "Java", Version: "1.4.2", URL: "http://repo.glare/dist/jdk-1.4.2.tgz",
		SizeBytes: 42 << 20, UnpackDir: "jdk-1.4.2",
		SourceTree: []TreeEntry{{RelPath: "install.sh", Executable: true, Size: 4096}},
		InstallTree: []TreeEntry{
			{RelPath: "bin/java", Executable: true, Size: 51200},
			{RelPath: "bin/javac", Executable: true, Size: 40960},
			{RelPath: "lib/rt.jar", Size: 20 << 20},
		},
		ConfigureDialog: []Dialog{
			{Prompt: "Do you agree to the above license terms? [yes or no]", Answer: "yes"},
		},
		ConfigureCost: 400 * time.Millisecond,
		BuildCost:     0,
		InstallCost:   2500 * time.Millisecond,
	})
	r.Add(&Artifact{
		Name: "Ant", Version: "1.6.5", URL: "http://repo.glare/dist/apache-ant-1.6.5.tgz",
		SizeBytes: 8 << 20, UnpackDir: "apache-ant-1.6.5",
		SourceTree: []TreeEntry{{RelPath: "README", Size: 2048}},
		InstallTree: []TreeEntry{
			{RelPath: "bin/ant", Executable: true, Size: 8192},
			{RelPath: "lib/ant.jar", Size: 2 << 20},
		},
		ConfigureCost: 150 * time.Millisecond,
		InstallCost:   900 * time.Millisecond,
	})
	r.Add(&Artifact{
		Name: "POVray", Version: "3.6.1", URL: "http://www.povray.org/ftp/povlinux-3.6.tgz",
		SizeBytes: 12 << 20, UnpackDir: "povray-3.6.1",
		SourceTree: []TreeEntry{
			{RelPath: "configure", Executable: true, Size: 65536},
			{RelPath: "Makefile.in", Size: 16384},
			{RelPath: "source/povray.cpp", Size: 1 << 20},
		},
		InstallTree: []TreeEntry{
			{RelPath: "bin/povray", Executable: true, Size: 3 << 20},
		},
		ConfigureDialog: []Dialog{
			{Prompt: "Accept POV-Ray license (y/n)?", Answer: "y"},
			{Prompt: "User type [personal/institutional]:", Answer: "personal"},
			{Prompt: "Install path [$POVRAY_HOME]:", Answer: ""},
		},
		ConfigureCost: 800 * time.Millisecond,
		BuildCost:     4200 * time.Millisecond,
		InstallCost:   600 * time.Millisecond,
	})
	r.Add(&Artifact{
		Name: "JPOVray", Version: "1.0", URL: "http://repo.glare/dist/jpovray-1.0.tgz",
		SizeBytes: 3 << 20, UnpackDir: "jpovray-1.0",
		SourceTree: []TreeEntry{
			{RelPath: "build.xml", Size: 4096},
			{RelPath: "src/JPOVray.java", Size: 512000},
		},
		InstallTree: []TreeEntry{
			{RelPath: "bin/jpovray", Executable: true, Size: 8192},
			{RelPath: "lib/jpovray.jar", Size: 1 << 20},
		},
		BuildCost:   2600 * time.Millisecond,
		InstallCost: 400 * time.Millisecond,
		Services:    []string{"WS-JPOVray"},
	})
	r.Add(&Artifact{
		Name: "Wien2k", Version: "05.1", URL: "http://repo.glare/dist/wien2k-05.tgz",
		SizeBytes: 15 << 20, UnpackDir: "wien2k-05",
		SourceTree: []TreeEntry{{RelPath: "siteconfig", Executable: true, Size: 32768}},
		InstallTree: []TreeEntry{
			{RelPath: "bin/lapw0", Executable: true, Size: 4 << 20},
			{RelPath: "bin/lapw1", Executable: true, Size: 4 << 20},
			{RelPath: "bin/lapw2", Executable: true, Size: 4 << 20},
		},
		// Pre-compiled: install dominated by unpacking/config, not builds.
		ConfigureCost: 1200 * time.Millisecond,
		BuildCost:     0,
		InstallCost:   6800 * time.Millisecond,
	})
	r.Add(&Artifact{
		Name: "Invmod", Version: "2.1", URL: "http://repo.glare/dist/invmod-2.1.tgz",
		SizeBytes: 12 << 20, UnpackDir: "invmod-2.1",
		SourceTree: []TreeEntry{
			{RelPath: "configure", Executable: true, Size: 40960},
			{RelPath: "src/wasim.f90", Size: 2 << 20},
		},
		InstallTree: []TreeEntry{
			{RelPath: "bin/invmod", Executable: true, Size: 6 << 20},
		},
		ConfigureDialog: []Dialog{
			{Prompt: "Path to WaSiM-ETH installation:", Answer: "/opt/wasim"},
		},
		ConfigureCost: 1800 * time.Millisecond,
		BuildCost:     22000 * time.Millisecond,
		InstallCost:   3900 * time.Millisecond,
	})
	r.Add(&Artifact{
		Name: "Counter", Version: "4.0", URL: "http://repo.glare/dist/counter-gt4.tgz",
		SizeBytes: 11 << 20, UnpackDir: "counter-gt4",
		SourceTree: []TreeEntry{
			{RelPath: "build.xml", Size: 4096},
			{RelPath: "src/CounterService.java", Size: 128000},
		},
		InstallTree: []TreeEntry{
			{RelPath: "bin/counter-client", Executable: true, Size: 4096},
		},
		// A GT4 service: container deployment dominates.
		ConfigureCost: 2100 * time.Millisecond,
		BuildCost:     16000 * time.Millisecond,
		InstallCost:   11600 * time.Millisecond,
		Services:      []string{"CounterService"},
	})
	return r
}
