// Super-peer failover: form a VO, kill the elected super-peer, and watch
// the surviving members verify the failure, agree by majority and promote
// the highest-ranked survivor (paper §3.3). Discovery keeps working
// throughout.
//
// Run with: go run ./examples/superpeer-failover
package main

import (
	"fmt"
	"log"
	"time"

	"glare"
)

func main() {
	grid, err := glare.NewGrid(glare.GridOptions{Sites: 5, GroupSize: 5})
	if err != nil {
		log.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Elect(); err != nil {
		log.Fatal(err)
	}

	spName := grid.SuperPeerOf(0)
	fmt.Printf("elected super-peer: %s\n", spName)
	for i := 0; i < grid.Sites(); i++ {
		role := "member"
		if grid.IsSuperPeer(i) {
			role = "SUPER-PEER"
		}
		fmt.Printf("  %-22s %s\n", grid.SiteName(i), role)
	}

	// Register the imaging stack on a member that will survive.
	spIdx, survivor := -1, -1
	for i := 0; i < grid.Sites(); i++ {
		if grid.SiteName(i) == spName {
			spIdx = i
		} else if survivor < 0 {
			survivor = i
		}
	}
	if err := grid.Client(survivor).RegisterTypes(glare.ImagingTypes()...); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nkilling super-peer %s ...\n", spName)
	grid.StopSite(spIdx)

	// Run the shipped monitor schedule in virtual time: a member's liveness
	// pass detects the failure and notifies the highest-ranked survivor,
	// which verifies, collects majority acknowledgements, and takes over.
	const step, bound = 2 * time.Second, 30 * time.Second
	for waited := time.Duration(0); ; waited += step {
		newSP := grid.SuperPeerOf(survivor)
		if newSP != spName && newSP != "" {
			fmt.Printf("re-election complete after %v of virtual time: new super-peer is %s\n", waited, newSP)
			break
		}
		if waited >= bound {
			log.Fatalf("re-election did not complete within %v of virtual time", bound)
		}
		if err := grid.Advance(step); err != nil {
			log.Fatal(err)
		}
	}

	// The system keeps working: every survivor can still resolve types.
	for i := 0; i < grid.Sites(); i++ {
		if i == spIdx {
			continue
		}
		deps, err := grid.Client(i).Discover("POVray")
		if err != nil {
			log.Fatalf("%s cannot discover after failover: %v", grid.SiteName(i), err)
		}
		fmt.Printf("  %-22s still resolves POVray -> %d deployments\n",
			grid.SiteName(i), len(deps))
	}
	fmt.Println("the rest of the GLARE system continued working")
}
