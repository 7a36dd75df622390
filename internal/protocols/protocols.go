// Package protocols links every protocol implementation of the repository
// into the importing binary, populating the internal/protocol registry as
// a side effect. Import it blank from binaries and tests that want the
// full registry without depending on any implementation directly:
//
//	import _ "allforone/internal/protocols"
//
// The repository root package imports every implementation anyway (its
// Protocol* name constants and result aliases come from them), so users of
// package allforone get the full registry for free.
package protocols

import (
	_ "allforone/internal/allconcur"
	_ "allforone/internal/benor"
	_ "allforone/internal/core"
	_ "allforone/internal/gossip"
	_ "allforone/internal/mm"
	_ "allforone/internal/mpcoin"
	_ "allforone/internal/multivalued"
	_ "allforone/internal/register"
	_ "allforone/internal/shconsensus"
	_ "allforone/internal/smr"
)
