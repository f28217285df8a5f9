// The benchmark is a module of its own, so the repository's module never
// builds, vets or tests it by accident and bench/ carries its own build
// file. Its import path stays under micronets/, which is what lets it
// import micronets/internal/...; the replace points at the checkout it
// sits in, so it always measures the code beside it.
module micronets/bench

go 1.24

require micronets v0.0.0

replace micronets => ../
