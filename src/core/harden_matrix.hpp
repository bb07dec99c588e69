// The harden sweep's header. The sweep is one projection of the defense grid
// and is declared in core/defense_matrix.hpp; this name stays for the code
// that includes it (crbench).
#pragma once

#include "core/defense_matrix.hpp"
