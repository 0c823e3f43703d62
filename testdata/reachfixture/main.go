// Command fixture is the reachability gate's planted module.
package main

import (
	"fmt"

	"fixture/lib"
)

var ready bool

func init() { ready = setup() }

// setup is reached only from init.
func setup() bool { return true }

func main() {
	var s lib.Sizer = lib.Box{}
	area := lib.Box{}.Area
	fmt.Println(ready, s.Size(), area(), lib.Table["double"](2))
}
