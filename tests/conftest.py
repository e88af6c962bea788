import sys

# the typechecker and the renderers recurse on terms nested other than as
# literals, and the substitution evaluator the machine is tested against
# recurses on every term
sys.setrecursionlimit(20_000)
