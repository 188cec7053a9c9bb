// The benchmark is a module of its own so that building it needs no file
// outside benchmark/ to change; the module path keeps it under wincm/ so it
// may import wincm/internal/..., and replace points at the checkout.
module wincm/benchmark

go 1.24

require wincm v0.0.0

replace wincm => ../
