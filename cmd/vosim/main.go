// Command vosim starts a simulated Virtual Organization of N GLARE sites
// on the loopback interface and keeps it running so that glarectl (or any
// HTTP client speaking the envelope protocol) can be pointed at it.
//
// Usage:
//
//	vosim -sites 7 -group-size 3 [-secure] [-register-imaging]
//
// The endpoints of every site are printed at startup. Interrupt to stop.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"glare/internal/rdm"
	"glare/internal/simclock"
	"glare/internal/superpeer"
	"glare/internal/vo"
)

func main() {
	sites := flag.Int("sites", 3, "number of Grid sites")
	groupSize := flag.Int("group-size", 0, "super-peer group size (0 = default)")
	secure := flag.Bool("secure", false, "serve HTTPS with a VO-internal CA")
	registerImaging := flag.Bool("register-imaging", true, "register the POVray imaging stack on site 1")
	registerApps := flag.Bool("register-apps", true, "register the Wien2k/Invmod/Counter types on site 1")
	flag.Parse()

	v, err := vo.Build(vo.Options{
		Sites:     *sites,
		GroupSize: *groupSize,
		Secure:    *secure,
		Clock:     simclock.Real,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vosim:", err)
		os.Exit(1)
	}
	defer v.Close()
	if err := v.ElectSuperPeers(); err != nil {
		fmt.Fprintln(os.Stderr, "vosim: election:", err)
		os.Exit(1)
	}
	if *registerImaging {
		if err := v.RegisterImagingStack(0); err != nil {
			fmt.Fprintln(os.Stderr, "vosim:", err)
			os.Exit(1)
		}
	}
	if *registerApps {
		if err := v.RegisterEvaluationApps(0); err != nil {
			fmt.Fprintln(os.Stderr, "vosim:", err)
			os.Exit(1)
		}
	}
	for _, n := range v.Nodes {
		n.RDM.StartMonitors()
	}

	fmt.Printf("VO up: %d sites\n", len(v.Nodes))
	for _, n := range v.Nodes {
		role := n.Agent.Role().String()
		if role == superpeer.RoleSuperPeer.String() {
			role = "SUPER-PEER"
		}
		fmt.Printf("  %-22s %-11s %s\n", n.Info.Name, role,
			n.Info.ServiceURL(rdm.ServiceName))
	}
	fmt.Println("interrupt to stop")

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	fmt.Println("shutting down")
}
