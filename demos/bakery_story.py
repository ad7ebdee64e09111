"""A guided tour of the cell calculus, told through a small bakery.

Run with: python3 demos/bakery_story.py

Two workers share a wall.  The kneader turns flour into dough and passes
it through the wall; the baker receives the dough and bakes it.  Composing
the two cells gives a silent pipeline, and the rewriter can discover that
pipeline symbolically.  A one-slot memory cell then shows iteration: the
counterparty may keep swapping the stored value for as long as it likes.
"""

from fcn import (
    ContinueMove,
    GetL,
    GetR,
    HComp,
    IdV,
    Interp,
    IterX,
    Promote,
    PutR,
    RecvMove,
    Signature,
    StopMove,
    Valuation,
    VComp,
    cells_equal,
    infer_boundary,
    rewrite,
    run_trace,
    show_cell,
)
from fcn import signature as sg


def build_world():
    sig = Signature()
    for name in ("flour", "dough", "bread", "oven"):
        sig.declare_object(name)
    sig.declare_morphism("knead", sg.GenObj("flour"), sg.GenObj("dough"))
    sig.declare_morphism(
        "bake",
        sg.tensor_obj(sg.GenObj("dough"), sg.GenObj("oven")),
        sg.tensor_obj(sg.GenObj("bread"), sg.GenObj("oven")),
    )
    val = Valuation()
    val.carriers["flour"] = ("rye", "wheat")
    val.carriers["dough"] = ("ryedough", "wheatdough")
    val.carriers["bread"] = ("ryeloaf", "wheatloaf")
    val.carriers["oven"] = ("hot",)
    val.mor_maps["knead"] = {
        sg.AtomV("rye"): sg.AtomV("ryedough"),
        sg.AtomV("wheat"): sg.AtomV("wheatdough"),
    }
    val.mor_maps["bake"] = {
        sg.TupleV((sg.AtomV("ryedough"), sg.AtomV("hot"))): sg.TupleV(
            (sg.AtomV("ryeloaf"), sg.AtomV("hot"))
        ),
        sg.TupleV((sg.AtomV("wheatdough"), sg.AtomV("hot"))): sg.TupleV(
            (sg.AtomV("wheatloaf"), sg.AtomV("hot"))
        ),
    }
    return sig, val


def main():
    sig, val = build_world()
    dough = sg.GenObj("dough")
    oven = sg.GenObj("oven")

    kneader = VComp(Promote(sg.GenMor("knead")), PutR(dough))
    baker = VComp(HComp(GetL(dough), IdV(oven)), Promote(sg.GenMor("bake")))
    bakery = HComp(kneader, baker)

    print("The kneader:", infer_boundary(kneader, sig))
    print("The baker:  ", infer_boundary(baker, sig))
    print("Together:   ", infer_boundary(bakery, sig))
    print()

    report = rewrite(bakery)
    print("The rewriter fuses the pair into one silent morphism:")
    print(" ", show_cell(report.result))
    for rule, path in report.trace:
        print(f"  via {rule} at {path}")
    fused = report.result
    print("  same behavior?", cells_equal(bakery, fused, sig, val))
    print()

    interp = Interp(sig, val)
    rye = sg.TupleV((sg.AtomV("rye"), sg.AtomV("hot")))
    print("Baking rye flour:", run_trace(interp, bakery, rye, []))
    print()

    # A one-slot memory: send out the current value, take in the next.
    memory = IterX(
        VComp(PutR(dough), GetR(dough)), IdV(dough), IdV(sg.UNIT)
    )
    print("A one-slot memory:", infer_boundary(memory, sig))
    script = [
        ContinueMove(),
        RecvMove(sg.AtomV("wheatdough")),
        ContinueMove(),
        RecvMove(sg.AtomV("ryedough")),
        StopMove(),
    ]
    print(
        "Two swap rounds, then stop:",
        run_trace(interp, memory, sg.AtomV("ryedough"), script),
    )


if __name__ == "__main__":
    main()
